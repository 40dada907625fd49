// Package floorplan models the physical layout of 3D-stacked multicore
// chips: functional blocks, silicon layers, and vertical stacks,
// together with the experimental configurations EXP-1..EXP-4 evaluated
// in Coskun et al., "Dynamic Thermal Management in 3D Multicore
// Architectures" (DATE 2009) and the sweep-extension stacks EXP-5
// (four tiers, 16 cores, logic bonded sink-side) and EXP-6 (six tiers,
// 24 cores), all derived from the UltraSPARC T1 (Niagara-1) floorplan.
//
// # Conventions
//
// In-plane coordinates and extents are in millimetres; layer 0 is the
// layer closest to the heat sink, with higher indices stacked further
// away (harder to cool). Cores are numbered consecutively across the
// whole stack (Block.CoreID), which is the index every per-core vector
// in the simulator uses.
//
// # Place in the dataflow
//
// A finalized Stack is the geometric ground truth every other layer
// builds on: internal/thermal derives its RC network (block- or
// grid-mode) from it, internal/power spreads per-core power over its
// blocks, policies query it for hot-spot susceptibility
// (HotSusceptibility, LayerDistanceFromSink, CoreCentrality), and the
// lifetime tracker labels its per-block wear reports with its block
// names and layers.
//
// # Stack identity
//
// Every Stack is built from a declarative StackSpec, and the spec's
// content hash (StackSpec.Hash) is the stack's identity everywhere
// below the wire. The builtin configurations are shipped specs:
// SpecForExperiment names EXP-n's layers, and SpecWithResistivity adds
// an explicit joint interlayer resistivity — the single place the
// "experiment plus joint resistivity" shorthand of sweep scenarios
// becomes a spec, so the shorthand and the spec it names always hash
// alike.
//
// # TSV model
//
// TSVModel is the paper's Figure 2: the joint resistivity of the
// interface material with copper vias in parallel. A spec's
// TSVsPerInterface and an interface's TSVs derive their resistivity
// through it, and cmd/tsvmodel and the Figure 2 report print its curve.
//
// # Concurrency
//
// A Stack is immutable after Finalize; every consumer — worker pools
// included — may share one instance without locking. Build/MustBuild
// construct fresh stacks, so mutating callers (the floorplanopt
// search) build their own.
package floorplan
