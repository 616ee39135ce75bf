// Command proteus-bench regenerates the tables and figures of the
// paper's evaluation (Section VI) and prints the data series the paper
// plots.
//
// Usage:
//
//	proteus-bench [-scale tiny|quick|full] [-fig 4|5|6|7|8|9|10|11|ablations|all]
//
// Figures 9, 10 and 11 share one set of scenario simulations, run once.
// Timing lives elsewhere: end to end and per layer in bench/ (bash
// bench/run.sh), per function in the packages' Benchmark* functions.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"proteus/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proteus-bench: ")

	scaleName := flag.String("scale", "quick", "experiment scale: tiny, quick or full")
	figs := flag.String("fig", "all", "comma-separated figure list (4,5,6,7,8,9,10,11,ablations) or 'all'")
	tracePath := flag.String("trace", "", "optional wikibench-format trace file for Fig. 5 instead of the synthetic stream")
	outDir := flag.String("out", "", "also write each rendered figure to <dir>/<name>.txt")
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("out dir: %v", err)
		}
		renderOutDir = *outDir
	}

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.Tiny()
	case "quick":
		scale = experiments.Quick()
	case "full":
		scale = experiments.Full()
	default:
		log.Fatalf("unknown scale %q (want tiny, quick or full)", *scaleName)
	}

	want := map[string]bool{}
	if *figs == "all" {
		for _, f := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "ablations"} {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	start := time.Now()
	if want["4"] {
		render("Fig. 4", func() (renderer, error) { return experiments.Fig4(scale) })
	}
	if want["5"] {
		if *tracePath != "" {
			render("Fig. 5", func() (renderer, error) {
				f, err := os.Open(*tracePath)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return experiments.Fig5FromTrace(scale, f)
			})
		} else {
			render("Fig. 5", func() (renderer, error) { return experiments.Fig5(scale) })
		}
	}
	if want["6"] {
		render("Fig. 6", func() (renderer, error) { return experiments.Fig6(scale) })
	}
	if want["7"] {
		render("Fig. 7", func() (renderer, error) { return experiments.Fig7(scale) })
	}
	if want["8"] {
		render("Fig. 8", func() (renderer, error) { return experiments.Fig8(scale) })
	}
	if want["9"] || want["10"] || want["11"] {
		log.Printf("running the four Table II scenario simulations (%s scale)...", scale.Name)
		runs, err := experiments.RunScenarios(scale)
		if err != nil {
			log.Fatalf("scenario runs: %v", err)
		}
		if want["9"] {
			text := experiments.Fig9(runs).Render()
			fmt.Println(text)
			writeOut("fig 9", text)
		}
		if want["10"] {
			text := experiments.Fig10(runs).Render()
			fmt.Println(text)
			writeOut("fig 10", text)
		}
		if want["11"] {
			text := experiments.Fig11(runs).Render()
			fmt.Println(text)
			writeOut("fig 11", text)
		}
	}
	if want["ablations"] {
		render("digest ablation", func() (renderer, error) { return experiments.AblationDigest(scale) })
		render("TTL ablation", func() (renderer, error) { return experiments.AblationTTL(scale) })
		render("controller ablation", func() (renderer, error) { return experiments.AblationController(scale) })
		render("replication", func() (renderer, error) { return experiments.AblationReplication(scale) })
		render("hot-key balance", func() (renderer, error) { return experiments.HotBalance(scale) })
		render("scalability", func() (renderer, error) { return experiments.Scalability(nil) })
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Truncate(time.Millisecond))
}

type renderer interface{ Render() string }

// renderOutDir, when set, mirrors rendered output to files.
var renderOutDir string

func render(name string, fn func() (renderer, error)) {
	res, err := fn()
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	text := res.Render()
	fmt.Println(text)
	writeOut(name, text)
}

func writeOut(name, text string) {
	if renderOutDir == "" {
		return
	}
	slug := strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(name, " ", "-"), ".", ""))
	path := renderOutDir + "/" + slug + ".txt"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		log.Printf("write %s: %v", path, err)
	}
}
