package thermal

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/floorplan"
)

// heatGlyphs maps normalized temperature to density glyphs, coolest to
// hottest.
const heatGlyphs = " .:-=+*#%@"

// heatmapCols and heatmapRows are the character resolution of one
// layer's map.
const (
	heatmapCols = 46
	heatmapRows = 12
)

// RenderHeatmap draws per-layer ASCII heat maps of a block-temperature
// vector (stack block order), the closest text equivalent of HotSpot's
// grid thermal maps. Each layer is sampled at character resolution by
// locating the block under each cell centre, and the colour scale
// spans the data range.
func RenderHeatmap(stack *floorplan.Stack, blockTempsC []float64) (string, error) {
	if len(blockTempsC) != stack.NumBlocks() {
		return "", fmt.Errorf("thermal: heatmap got %d temps for %d blocks", len(blockTempsC), stack.NumBlocks())
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range blockTempsC {
		lo = math.Min(lo, t)
		hi = math.Max(hi, t)
	}
	if hi <= lo {
		hi = lo + 1
	}

	var out strings.Builder
	fmt.Fprintf(&out, "Thermal map %s: scale %.1f °C '%c' .. %.1f °C '%c'\n",
		stack.Name, lo, heatGlyphs[0], hi, heatGlyphs[len(heatGlyphs)-1])
	for li := len(stack.Layers) - 1; li >= 0; li-- {
		layer := stack.Layers[li]
		bounds := layer.Bounds()
		layerLo, layerHi := math.Inf(1), math.Inf(-1)
		for _, b := range layer.Blocks {
			t := blockTempsC[stack.BlockIndex(b)]
			layerLo = math.Min(layerLo, t)
			layerHi = math.Max(layerHi, t)
		}
		fmt.Fprintf(&out, "Layer %d (%.1f-%.1f °C)%s\n", li, layerLo, layerHi, sinkNote(li))
		border := "+" + strings.Repeat("-", heatmapCols) + "+"
		out.WriteString(border + "\n")
		for r := 0; r < heatmapRows; r++ {
			out.WriteByte('|')
			for c := 0; c < heatmapCols; c++ {
				x := bounds.X + (float64(c)+0.5)/heatmapCols*bounds.W
				y := bounds.Y + (float64(heatmapRows-1-r)+0.5)/heatmapRows*bounds.H
				out.WriteByte(glyphAt(stack, layer, blockTempsC, x, y, lo, hi))
			}
			out.WriteString("|\n")
		}
		out.WriteString(border + "\n")
	}
	return out.String(), nil
}

func sinkNote(layerIndex int) string {
	if layerIndex == 0 {
		return "  [heat sink side]"
	}
	return ""
}

func glyphAt(stack *floorplan.Stack, layer *floorplan.Layer, temps []float64, x, y, lo, hi float64) byte {
	for _, b := range layer.Blocks {
		if b.Rect.Contains(x, y) {
			t := temps[stack.BlockIndex(b)]
			idx := int((t - lo) / (hi - lo) * float64(len(heatGlyphs)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(heatGlyphs) {
				idx = len(heatGlyphs) - 1
			}
			return heatGlyphs[idx]
		}
	}
	return ' '
}

// HotBlocks lists block names whose temperature exceeds the threshold,
// hottest first (for report summaries).
func HotBlocks(stack *floorplan.Stack, blockTempsC []float64, thresholdC float64) ([]string, error) {
	if len(blockTempsC) != stack.NumBlocks() {
		return nil, fmt.Errorf("thermal: hot-block scan got %d temps for %d blocks", len(blockTempsC), stack.NumBlocks())
	}
	type hot struct {
		name string
		t    float64
	}
	var hots []hot
	for bi, b := range stack.Blocks() {
		if blockTempsC[bi] > thresholdC {
			hots = append(hots, hot{b.Name, blockTempsC[bi]})
		}
	}
	// Insertion sort by temperature descending (lists are tiny).
	for i := 1; i < len(hots); i++ {
		for j := i; j > 0 && hots[j].t > hots[j-1].t; j-- {
			hots[j], hots[j-1] = hots[j-1], hots[j]
		}
	}
	out := make([]string, len(hots))
	for i, h := range hots {
		out[i] = fmt.Sprintf("%s (%.1f °C)", h.name, h.t)
	}
	return out, nil
}
