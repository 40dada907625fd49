package floorplan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/geometry"
)

// StackSpec is the declarative stack-description format: a JSON document
// describing a full 3D chip — layers (as Niagara-style templates or
// explicit block lists), silicon thicknesses, the TSV-adjusted interface
// material between tiers, per-tier frequency/power scaling for
// heterogeneous (big.LITTLE-style) designs, and optional interlayer
// microfluidic cooling. It is the one true construction path for a
// *Stack: the builtin EXP-1..EXP-6 configurations are expressed in this
// format (SpecForExperiment) and every user-defined scenario loads
// through the same parser, validator, and builder.
//
// Identity: a spec's content hash (Hash) keys thermal-model identity
// (sim.ModelKey) and sweep job keys, so two specs that differ anywhere
// can never share a cache entry, while byte-identical inline specs sent
// by different clients deduplicate perfectly.
type StackSpec struct {
	// Name labels the stack; it appears in reports, heatmaps, and (for
	// registered specs) resolves `"stack": "name"` scenario references.
	Name string `json:"name,omitempty"`

	// InterlayerResistivityMKW is the joint interface-material
	// resistivity in m·K/W. Zero derives it from TSVsPerInterface when
	// that is set, else uses the paper's 0.23 (1024 TSVs).
	InterlayerResistivityMKW float64 `json:"interlayer_resistivity_mkw,omitempty"`
	// TSVsPerInterface derives the joint resistivity from a homogeneous
	// through-silicon-via count using the paper's Figure 2 model (copper
	// vias in parallel with the base interface material). Ignored when
	// InterlayerResistivityMKW is set explicitly.
	TSVsPerInterface int `json:"tsvs_per_interface,omitempty"`
	// InterlayerThicknessMM is the interface material thickness in mm
	// (0: the paper's 0.02).
	InterlayerThicknessMM float64 `json:"interlayer_thickness_mm,omitempty"`

	// Layers orders the silicon tiers from the heat sink upward
	// (layer 0 bonds, through the package, to the spreader).
	Layers []LayerSpec `json:"layers"`

	// Interfaces optionally overrides the bonding interface between
	// consecutive layers (len must be len(Layers)-1 when present;
	// entry i sits between layer i and i+1). Zero-valued entries
	// inherit the stack-wide interlayer fields.
	Interfaces []InterfaceSpec `json:"interfaces,omitempty"`
}

// LayerSpec describes one silicon tier: either a named template
// (expanded through the same builders that produce the paper's
// floorplans) or an explicit block list. Core and L2 IDs are assigned
// automatically in layer-then-document order, exactly as the builtin
// configurations number them.
type LayerSpec struct {
	// Template selects a builtin layer floorplan: "cores" (8 SPARC
	// cores + crossbar/other band), "memory" (4 L2 banks + filler), or
	// "mixed" (4 cores + 2 L2 banks; odd layers flip vertically so
	// cores never stack directly on cores). Empty means Blocks is used.
	Template string `json:"template,omitempty"`
	// Blocks is the explicit floorplan when Template is empty. Blocks
	// must tile the 11.5 x 10 mm die (same coverage rule Stack.Validate
	// enforces).
	Blocks []BlockSpec `json:"blocks,omitempty"`
	// ThicknessMM overrides the silicon thickness (0: the paper's 0.15).
	ThicknessMM float64 `json:"thickness_mm,omitempty"`
	// FreqScale scales the clock delivered to this tier's cores at
	// every DVFS level (0: 1.0). A 0.7 tier runs 30% slower at full
	// V/f — the "LITTLE" half of a heterogeneous stack.
	FreqScale float64 `json:"freq_scale,omitempty"`
	// PowerScale scales this tier's core dynamic power (0: 1.0),
	// modelling smaller/simpler cores on the same floorplan grid.
	PowerScale float64 `json:"power_scale,omitempty"`
}

// BlockSpec is one rectangular functional unit of an explicit layer.
type BlockSpec struct {
	Name string `json:"name"`
	// Kind is "core", "l2", "xbar", or "other".
	Kind string `json:"kind"`
	// X, Y, W, H position the block on the layer in mm.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	W float64 `json:"w"`
	H float64 `json:"h"`
}

// InterfaceSpec overrides one bonding interface of the stack.
type InterfaceSpec struct {
	// ResistivityMKW overrides the joint resistivity for this interface
	// (0: derive from TSVs, else inherit the stack default).
	ResistivityMKW float64 `json:"resistivity_mkw,omitempty"`
	// TSVs derives this interface's joint resistivity from a via count
	// when ResistivityMKW is zero.
	TSVs int `json:"tsvs,omitempty"`
	// ThicknessMM overrides the interface thickness (0: inherit).
	ThicknessMM float64 `json:"thickness_mm,omitempty"`
	// Coolant models an interlayer microfluidic channel in this
	// interface.
	Coolant *CoolantSpec `json:"coolant,omitempty"`
}

// CoolantSpec describes interlayer liquid cooling: the faces of both
// adjacent layers couple to the coolant (held at ambient) with the
// given heat transfer coefficient. The thermal system must stay linear
// for the shared-factorization solver, so a temperature-dependent HTC
// table is linearized once at build time around DesignTempC.
type CoolantSpec struct {
	// HTCWm2K is a constant heat transfer coefficient in W/(m²·K).
	HTCWm2K float64 `json:"htc_w_m2k,omitempty"`
	// HTCTable lists [wall_temp_c, htc_w_m2k] pairs with strictly
	// increasing temperatures; the effective HTC is interpolated at
	// DesignTempC. Mutually exclusive with HTCWm2K.
	HTCTable [][2]float64 `json:"htc_table,omitempty"`
	// DesignTempC is the linearization temperature for HTCTable
	// (0: 60 °C, a typical junction design point).
	DesignTempC float64 `json:"design_temp_c,omitempty"`
}

// Template block counts, used by the pre-expansion size gates
// (NumBlocks/NumCores) so servers can bound a spec's cost without
// building it.
const (
	coresTemplateBlocks  = 10 // 8 cores + xbar + other
	coresTemplateCores   = 8
	memoryTemplateBlocks = 6 // 4 L2 banks + 2 filler
	memoryTemplateL2s    = 4
	mixedTemplateBlocks  = 8 // 4 cores + 2 L2 + xbar + other
	mixedTemplateCores   = 4
	mixedTemplateL2s     = 2
)

// Upper bounds on a spec's physics. Each sits far above every shipped
// scenario and example (thicknesses up to 0.3 mm, resistivities up to
// 0.25 m·K/W, scales up to 1, coolant HTCs up to 12,000 W/(m²·K) at
// 60 °C), and together they keep a validated stack's temperatures
// finite: a power_scale of 1e308 would stream +Inf °C records, and a
// thickness of 1e300 mm would fail later as a singular solve.
const (
	// maxThicknessMM bounds every layer and interface thickness; a
	// whole package is thinner.
	maxThicknessMM = 10.0
	// maxResistivityMKW bounds every interface resistivity; still air
	// is about 40 m·K/W.
	maxResistivityMKW = 1000.0
	// maxScale bounds a layer's freq_scale and power_scale.
	maxScale = 10.0
	// maxHTCWm2K bounds a coolant's heat transfer coefficient, constant
	// or tabulated; flow boiling stays below it.
	maxHTCWm2K = 1e7
	// maxCoolantTempC bounds a coolant's design and table temperatures.
	maxCoolantTempC = 1000.0
)

// bound is one upper-bound check: a field's wire name, value and limit.
type bound struct {
	field  string
	v, max float64
}

// checkBounds returns an error naming the first field above its limit.
// NaN, which no JSON document carries but a Go caller can, fails too.
func checkBounds(bs ...bound) error {
	for _, b := range bs {
		if !(b.v <= b.max) {
			return fmt.Errorf("%s %g exceeds the limit %g", b.field, b.v, b.max)
		}
	}
	return nil
}

// ParseStackSpec decodes a JSON stack description strictly (unknown
// fields are rejected, so typos fail loudly instead of silently
// building a default) and validates it. The returned spec is validated
// but not yet built; call Build for the *Stack.
func ParseStackSpec(data []byte) (*StackSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s StackSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("floorplan: bad stack spec: %w", err)
	}
	// Anything but whitespace after the document — a second document, a
	// stray closing delimiter — would be silently ignored otherwise.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("floorplan: bad stack spec: trailing data after JSON document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's declarative invariants: known templates,
// template-xor-blocks per layer, physics between zero and its upper
// bound (maxThicknessMM and the limits beside it), interface list
// length, and well-formed coolant tables. Geometric invariants
// (coverage, overlap, bounds) are checked by Build through
// Stack.Validate.
func (s *StackSpec) Validate() error {
	if len(s.Layers) == 0 {
		return fmt.Errorf("floorplan: stack spec %q has no layers", s.Name)
	}
	if s.InterlayerResistivityMKW < 0 {
		return fmt.Errorf("floorplan: stack spec %q: negative interlayer resistivity %g", s.Name, s.InterlayerResistivityMKW)
	}
	if s.InterlayerThicknessMM < 0 {
		return fmt.Errorf("floorplan: stack spec %q: negative interlayer thickness %g", s.Name, s.InterlayerThicknessMM)
	}
	if s.TSVsPerInterface < 0 {
		return fmt.Errorf("floorplan: stack spec %q: negative TSV count %d", s.Name, s.TSVsPerInterface)
	}
	if err := checkBounds(
		bound{"interlayer_resistivity_mkw", s.InterlayerResistivityMKW, maxResistivityMKW},
		bound{"interlayer_thickness_mm", s.InterlayerThicknessMM, maxThicknessMM},
	); err != nil {
		return fmt.Errorf("floorplan: stack spec %q: %w", s.Name, err)
	}
	for i, l := range s.Layers {
		switch l.Template {
		case "cores", "memory", "mixed":
			if len(l.Blocks) > 0 {
				return fmt.Errorf("floorplan: layer %d sets both template %q and explicit blocks", i, l.Template)
			}
		case "":
			if len(l.Blocks) == 0 {
				return fmt.Errorf("floorplan: layer %d needs a template or explicit blocks", i)
			}
		default:
			return fmt.Errorf("floorplan: layer %d has unknown template %q (want cores, memory, or mixed)", i, l.Template)
		}
		if l.ThicknessMM < 0 || l.FreqScale < 0 || l.PowerScale < 0 {
			return fmt.Errorf("floorplan: layer %d has negative thickness or scale", i)
		}
		if err := checkBounds(
			bound{"thickness_mm", l.ThicknessMM, maxThicknessMM},
			bound{"freq_scale", l.FreqScale, maxScale},
			bound{"power_scale", l.PowerScale, maxScale},
		); err != nil {
			return fmt.Errorf("floorplan: layer %d: %w", i, err)
		}
		for j, b := range l.Blocks {
			if _, err := parseBlockKind(b.Kind); err != nil {
				return fmt.Errorf("floorplan: layer %d block %d (%q): %w", i, j, b.Name, err)
			}
			if b.Name == "" {
				return fmt.Errorf("floorplan: layer %d block %d has no name", i, j)
			}
			if b.W <= 0 || b.H <= 0 {
				return fmt.Errorf("floorplan: layer %d block %q has non-positive extent %gx%g", i, b.Name, b.W, b.H)
			}
		}
	}
	if len(s.Interfaces) > 0 && len(s.Interfaces) != len(s.Layers)-1 {
		return fmt.Errorf("floorplan: stack spec %q has %d interfaces for %d layers (want %d)",
			s.Name, len(s.Interfaces), len(s.Layers), len(s.Layers)-1)
	}
	for i, ifc := range s.Interfaces {
		if ifc.ResistivityMKW < 0 || ifc.ThicknessMM < 0 || ifc.TSVs < 0 {
			return fmt.Errorf("floorplan: interface %d has a negative field", i)
		}
		if err := checkBounds(
			bound{"resistivity_mkw", ifc.ResistivityMKW, maxResistivityMKW},
			bound{"thickness_mm", ifc.ThicknessMM, maxThicknessMM},
		); err != nil {
			return fmt.Errorf("floorplan: interface %d: %w", i, err)
		}
		if c := ifc.Coolant; c != nil {
			if err := c.validate(); err != nil {
				return fmt.Errorf("floorplan: interface %d coolant: %w", i, err)
			}
		}
	}
	return nil
}

func (c *CoolantSpec) validate() error {
	if c.HTCWm2K < 0 || c.DesignTempC < 0 {
		return fmt.Errorf("negative htc or design temperature")
	}
	if err := checkBounds(
		bound{"htc_w_m2k", c.HTCWm2K, maxHTCWm2K},
		bound{"design_temp_c", c.DesignTempC, maxCoolantTempC},
	); err != nil {
		return err
	}
	if c.HTCWm2K > 0 && len(c.HTCTable) > 0 {
		return fmt.Errorf("set htc_w_m2k or htc_table, not both")
	}
	if c.HTCWm2K == 0 && len(c.HTCTable) == 0 {
		return fmt.Errorf("needs htc_w_m2k or htc_table")
	}
	for i, p := range c.HTCTable {
		if p[1] <= 0 {
			return fmt.Errorf("table entry %d has non-positive htc %g", i, p[1])
		}
		if err := checkBounds(
			bound{"htc_table temperature", p[0], maxCoolantTempC},
			bound{"htc_table htc", p[1], maxHTCWm2K},
		); err != nil {
			return fmt.Errorf("table entry %d: %w", i, err)
		}
		if i > 0 && p[0] <= c.HTCTable[i-1][0] {
			return fmt.Errorf("table temperatures must be strictly increasing (entry %d)", i)
		}
	}
	return nil
}

// effectiveHTC linearizes the coolant at build time: a constant HTC
// passes through; a table interpolates at the design temperature
// (clamping outside the table range).
func (c *CoolantSpec) effectiveHTC() float64 {
	if c.HTCWm2K > 0 {
		return c.HTCWm2K
	}
	t := c.DesignTempC
	if t == 0 {
		t = 60
	}
	tab := c.HTCTable
	if t <= tab[0][0] {
		return tab[0][1]
	}
	last := tab[len(tab)-1]
	if t >= last[0] {
		return last[1]
	}
	for i := 1; i < len(tab); i++ {
		if t <= tab[i][0] {
			lo, hi := tab[i-1], tab[i]
			f := (t - lo[0]) / (hi[0] - lo[0])
			return lo[1] + f*(hi[1]-lo[1])
		}
	}
	return last[1]
}

// The size gates a server applies to an inbound spec BEFORE building
// it: NumLayers and NumBlocks count a spec's layers and blocks from the
// declaration alone (template expansion is a fixed count per template),
// so an inline spec declaring thousands of tiers is rejected without
// allocating its geometry, matrices, or factorization. The ceilings sit
// far above the library (EXP-6 is 6 layers, 48 blocks) while bounding
// the thermal system to roughly the size a maximal grid request could
// already demand.
const (
	MaxSpecLayers = 16
	MaxSpecBlocks = 4096
)

// NumLayers returns the tier count without building the stack.
func (s *StackSpec) NumLayers() int { return len(s.Layers) }

// NumBlocks returns the total block count the spec would build, without
// building it — the pre-expansion size gate servers apply to inbound
// specs.
func (s *StackSpec) NumBlocks() int {
	n := 0
	for _, l := range s.Layers {
		switch l.Template {
		case "cores":
			n += coresTemplateBlocks
		case "memory":
			n += memoryTemplateBlocks
		case "mixed":
			n += mixedTemplateBlocks
		default:
			n += len(l.Blocks)
		}
	}
	return n
}

// NumCores returns the core count the spec would build, without
// building it.
func (s *StackSpec) NumCores() int {
	n := 0
	for _, l := range s.Layers {
		switch l.Template {
		case "cores":
			n += coresTemplateCores
		case "mixed":
			n += mixedTemplateCores
		default:
			for _, b := range l.Blocks {
				if b.Kind == "core" {
					n++
				}
			}
		}
	}
	return n
}

// Hash returns the spec's content hash: 12 hex characters of the
// SHA-256 of its canonical JSON encoding. Any field that changes the
// built system changes the hash, so it is safe to use as cache and
// job-key identity for inline specs.
func (s StackSpec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshaling a plain struct of scalars and slices cannot fail;
		// a non-finite float snuck in through Go code (not JSON) would.
		panic(fmt.Sprintf("floorplan: hashing stack spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

func parseBlockKind(s string) (BlockKind, error) {
	switch s {
	case "core":
		return KindCore, nil
	case "l2":
		return KindL2, nil
	case "xbar":
		return KindCrossbar, nil
	case "other":
		return KindOther, nil
	}
	return 0, fmt.Errorf("unknown block kind %q (want core, l2, xbar, or other)", s)
}

// Build constructs and validates the *Stack the spec describes.
// Template layers expand through the same builders as the builtin
// experiments, so a spec expressing EXP-n builds a byte-identical
// stack; explicit layers assign core and L2 IDs in document order.
func (s *StackSpec) Build() (*Stack, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	jr := s.InterlayerResistivityMKW
	if jr == 0 {
		jr = NewTSVModel().JointResistivity(s.TSVsPerInterface)
		if s.TSVsPerInterface == 0 {
			jr = paperJointResistivityMKW
		}
	}
	tInt := s.InterlayerThicknessMM
	if tInt == 0 {
		tInt = InterlayerThicknessMM
	}
	st := &Stack{
		Name:                     s.Name,
		InterlayerResistivityMKW: jr,
		InterlayerThicknessMM:    tInt,
	}
	cores, l2s := 0, 0
	for i, ls := range s.Layers {
		var l *Layer
		switch ls.Template {
		case "cores":
			l = coreLayer(i, cores)
			cores += coresTemplateCores
		case "memory":
			l = memoryLayer(i, l2s)
			l2s += memoryTemplateL2s
		case "mixed":
			l = mixedLayer(i, cores, l2s)
			cores += mixedTemplateCores
			l2s += mixedTemplateL2s
		default:
			l = &Layer{Index: i, ThicknessMM: DieThicknessMM}
			for _, bs := range ls.Blocks {
				kind, err := parseBlockKind(bs.Kind)
				if err != nil {
					return nil, fmt.Errorf("floorplan: layer %d block %q: %w", i, bs.Name, err)
				}
				rect, err := geometry.NewRect(bs.X, bs.Y, bs.W, bs.H)
				if err != nil {
					return nil, fmt.Errorf("floorplan: layer %d block %q: %w", i, bs.Name, err)
				}
				b := &Block{Name: bs.Name, Kind: kind, Rect: rect, Layer: i, CoreID: -1, L2ID: -1}
				switch kind {
				case KindCore:
					b.CoreID = cores
					cores++
				case KindL2:
					b.L2ID = l2s
					l2s++
				}
				l.Blocks = append(l.Blocks, b)
			}
		}
		if ls.ThicknessMM > 0 {
			l.ThicknessMM = ls.ThicknessMM
		}
		if ls.FreqScale != 0 || ls.PowerScale != 0 {
			for _, b := range l.Blocks {
				if b.IsCore() {
					b.FreqScale = ls.FreqScale
					b.PowerScale = ls.PowerScale
				}
			}
		}
		st.Layers = append(st.Layers, l)
	}
	if len(s.Interfaces) > 0 {
		st.Interfaces = make([]InterfaceProps, len(s.Interfaces))
		for i, ifc := range s.Interfaces {
			p := InterfaceProps{
				ResistivityMKW: ifc.ResistivityMKW,
				ThicknessMM:    ifc.ThicknessMM,
			}
			if p.ResistivityMKW == 0 && ifc.TSVs > 0 {
				p.ResistivityMKW = NewTSVModel().JointResistivity(ifc.TSVs)
			}
			if ifc.Coolant != nil {
				p.CoolantHTCWm2K = ifc.Coolant.effectiveHTC()
			}
			st.Interfaces[i] = p
		}
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	return st, nil
}

// SpecForExperiment expresses one of the paper's (or the extended
// sweep's) configurations in the declarative format. Build of the
// returned spec produces a stack byte-identical to the former
// hardcoded builders — EXP-1..6 are now just entries in the scenario
// vocabulary, distinguished only by being shipped with the simulator.
func SpecForExperiment(e Experiment) (StackSpec, error) {
	layers := func(templates ...string) []LayerSpec {
		out := make([]LayerSpec, len(templates))
		for i, t := range templates {
			out[i] = LayerSpec{Template: t}
		}
		return out
	}
	s := StackSpec{Name: e.String()}
	switch e {
	case EXP1:
		// Memory bonds to the package/heat-sink side; all cores sit in
		// the poorly-cooled far position (Section IV-A).
		s.Layers = layers("memory", "cores")
	case EXP2:
		s.Layers = layers("mixed", "mixed")
	case EXP3:
		s.Layers = layers("memory", "cores", "memory", "cores")
	case EXP4:
		s.Layers = layers("mixed", "mixed", "mixed", "mixed")
	case EXP5:
		// EXP3 with each tier pair flipped: logic bonds to the cooler,
		// sink-facing position.
		s.Layers = layers("cores", "memory", "cores", "memory")
	case EXP6:
		s.Layers = layers("memory", "cores", "memory", "cores", "memory", "cores")
	default:
		return StackSpec{}, fmt.Errorf("floorplan: unknown experiment %d", int(e))
	}
	return s, nil
}

// The process-wide spec registry: named stacks that scenario references
// of the form `"stack": "name"` resolve against. The shipped scenario
// library (package scenarios) registers itself here at init; servers
// add operator-supplied specs via the dtmserved -stack flag.
var (
	specRegMu sync.RWMutex
	specReg   = map[string]StackSpec{}
)

// RegisterStackSpec adds a named spec to the process-wide registry.
// Re-registering the same name with identical content is a no-op;
// conflicting content is an error (a silently replaced spec would
// alias every job key referencing the name).
func RegisterStackSpec(s StackSpec) error {
	if s.Name == "" {
		return fmt.Errorf("floorplan: cannot register a stack spec without a name")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	specRegMu.Lock()
	defer specRegMu.Unlock()
	if prev, ok := specReg[s.Name]; ok {
		if prev.Hash() != s.Hash() {
			return fmt.Errorf("floorplan: stack spec %q already registered with different content", s.Name)
		}
		return nil
	}
	specReg[s.Name] = s
	return nil
}

// LookupStackSpec resolves a registered spec by name.
func LookupStackSpec(name string) (StackSpec, bool) {
	specRegMu.RLock()
	defer specRegMu.RUnlock()
	s, ok := specReg[name]
	return s, ok
}

// RegisteredStackSpecs lists the registered spec names, sorted.
func RegisteredStackSpecs() []string {
	specRegMu.RLock()
	defer specRegMu.RUnlock()
	names := make([]string, 0, len(specReg))
	for n := range specReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
