package exp

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
)

// PolicyOrder is the paper's Figure 3 x-axis ordering, extended with
// the lifetime-aware DVFS_Rel policy and the model-predictive
// MPC_Thermal/MPC_Rel pair (inserted after the paper's DVFS variants;
// everything else keeps its published position).
var PolicyOrder = []string{
	"Default",
	"CGate",
	"DVFS_TT",
	"DVFS_Util",
	"DVFS_FLP",
	"DVFS_Rel",
	"MPC_Thermal",
	"MPC_Rel",
	"Migr",
	"AdaptRand",
	"Adapt3D",
	"Adapt3D&DVFS_TT",
	"Adapt3D&DVFS_Util",
	"Adapt3D&DVFS_FLP",
}

// KnownPolicy reports whether name is a buildable policy. It lets
// request validation (the dtmserved sweep API) reject a bad roster
// before any simulation starts, instead of failing mid-stream when
// BuildPolicy first sees the name.
func KnownPolicy(name string) bool {
	for _, p := range PolicyOrder {
		if p == name {
			return true
		}
	}
	return false
}

// BuildPolicy constructs the named roster policy (one of PolicyOrder)
// for one stack: the paper's seven baselines, the lifetime-aware
// DVFS_Rel, the MPC pair, Adapt3D, or one of the three hybrids of
// Section III-C. Every stochastic allocator gets a deterministic seed
// derived from seed: AdaptRand seed, Adapt3D seed+1, and the
// Adapt3D&DVFS_TT/_Util/_FLP hybrids seed+2/+3/+4. Only the four
// Adapt3D-based policies build a thermal model: their thermal indices
// come from a steady-state solve of the stack's private block model.
func BuildPolicy(name string, stack *floorplan.Stack, seed int64) (policy.Policy, error) {
	var dvfs policy.Policy // the hybrid's DVFS half; nil for Adapt3D alone
	offset := int64(1)
	switch name {
	case "Default":
		return policy.NewDefault(), nil
	case "CGate":
		return policy.NewCGate(), nil
	case "DVFS_TT":
		return policy.NewDVFSTT(), nil
	case "DVFS_Util":
		return policy.NewDVFSUtil(), nil
	case "DVFS_FLP":
		return policy.NewDVFSFLP(), nil
	case "DVFS_Rel":
		return policy.NewDVFSRel(), nil
	case "MPC_Thermal":
		return policy.NewMPCThermal(), nil
	case "MPC_Rel":
		return policy.NewMPCRel(), nil
	case "Migr":
		return policy.NewMigr(), nil
	case "AdaptRand":
		ar, err := policy.NewAdaptRand(stack.NumCores(), seed)
		if err != nil {
			return nil, err
		}
		return ar, nil
	case "Adapt3D":
	case "Adapt3D&DVFS_TT":
		dvfs, offset = policy.NewDVFSTT(), 2
	case "Adapt3D&DVFS_Util":
		dvfs, offset = policy.NewDVFSUtil(), 3
	case "Adapt3D&DVFS_FLP":
		dvfs, offset = policy.NewDVFSFLP(), 4
	default:
		return nil, fmt.Errorf("exp: unknown policy %q (want one of %v)", name, PolicyOrder)
	}
	model, err := thermal.NewBlockModel(stack, thermal.DefaultParams())
	if err != nil {
		return nil, err
	}
	cfg := policy.DefaultAdapt3DConfig()
	cfg.Seed = seed + offset
	a3d, err := policy.NewAdapt3D(stack, model, cfg)
	if err != nil {
		return nil, err
	}
	if dvfs == nil {
		return a3d, nil
	}
	h, err := policy.NewHybrid(a3d, dvfs)
	if err != nil {
		return nil, err
	}
	return h, nil
}
