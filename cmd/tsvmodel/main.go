// Command tsvmodel regenerates Figure 2 of the paper: the joint thermal
// resistivity of the die-to-die interface material as a function of
// through-silicon-via density, with the area-overhead accounting that
// justifies the paper's 0.23 mK/W operating point.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/floorplan"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsvmodel: ")

	maxFlag := flag.Int("max", 4096, "largest via count to sweep")
	stepsFlag := flag.Int("steps", 12, "number of sweep points")
	chartFlag := flag.Bool("chart", false, "also draw an ASCII chart")
	flag.Parse()

	if *maxFlag <= 0 || *stepsFlag < 2 {
		log.Fatal("need -max > 0 and -steps >= 2")
	}
	counts := make([]int, 0, *stepsFlag)
	for i := 0; i < *stepsFlag; i++ {
		counts = append(counts, i**maxFlag/(*stepsFlag-1))
	}
	m := floorplan.NewTSVModel()
	pts := m.Fig2Curve(counts)

	t := report.NewTable("Fig. 2: Effect of Vias on the Resistivity of the Interface Material",
		"TSVs", "Density %", "Area Overhead %", "Joint Resistivity mK/W")
	labels := make([]string, 0, len(pts))
	values := make([]float64, 0, len(pts))
	for _, p := range pts {
		t.AddRow(p.ViaCount, fmt.Sprintf("%.4f", p.DensityPct), fmt.Sprintf("%.3f", p.AreaOverheadPct),
			fmt.Sprintf("%.4f", p.JointResistivity))
		labels = append(labels, fmt.Sprintf("%d", p.ViaCount))
		values = append(values, p.JointResistivity)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPaper operating point: 1024 vias -> %.3f mK/W (%.2f%% area overhead, %.1f vias/mm²)\n",
		m.JointResistivity(1024), 100*m.AreaOverhead(1024), 1024.0/115.0)
	if *chartFlag {
		fmt.Println()
		if err := report.BarChart(os.Stdout, "Joint resistivity (mK/W) vs via count", labels, values, 50); err != nil {
			log.Fatal(err)
		}
	}
}
