package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// ablationGrid compares Nest variants against full Nest (schedutil) on a
// set of workloads and machines.
func ablationGrid(id, title string, workloads []string, variants []string, machines []string, opt Options) (*Report, error) {
	opt.fill()
	machs := machinesOrDefault(opt, machines)
	perWl := 1 + len(variants) // full Nest first, then each variant
	reqs := make([]cellReq, 0, len(machs)*len(workloads)*perWl)
	for _, mach := range machs {
		for _, wl := range workloads {
			reqs = append(reqs, cellReq{mach: mach, cfg: cfgNestSched, wl: wl})
			for _, v := range variants {
				reqs = append(reqs, cellReq{mach: mach, cfg: config{"nest:" + v, "schedutil"}, wl: wl})
			}
		}
	}
	cells, err := measureGrid(reqs, opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title}
	cols := append([]string{"workload", "nest (s)"}, variants...)
	i := 0
	for _, mach := range machs {
		sec := Section{Heading: mach, Columns: cols}
		for _, wl := range workloads {
			base := cells[i]
			i++
			row := []string{shortName(wl), fmt.Sprintf("%.3f ±%.0f%%", base.meanTime(), base.stdPct())}
			for range variants {
				// Positive = the variant is FASTER than full Nest;
				// negative = removing/changing the feature costs that much.
				row = append(row, pct(metrics.Speedup(base.meanTime(), cells[i].meanTime())))
				i++
			}
			sec.Rows = append(sec.Rows, row)
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep, nil
}

// ablationConfigure is §5.2's study: feature removal and parameter
// scaling on llvm_ninja and mplayer configuration.
func ablationConfigure(opt Options) (*Report, error) {
	variants := []string{
		"noreserve", "nocompact", "nospin", "noattach", "nowc", "noimpatience", "noclaim",
		"premove=1", "premove=4", "premove=20",
		"smax=1", "smax=4", "smax=20",
		"rmax=2", "rmax=10", "rmax=50",
		"rimpatient=1", "rimpatient=4", "rimpatient=20",
	}
	rep, err := ablationGrid("ablation-configure",
		"Nest ablation on configure (speedup of variant vs full Nest-schedutil; negative = feature helps)",
		[]string{"configure/llvm_ninja", "configure/mplayer"},
		variants, []string{"6130-2", "5218", "e7-8870"}, opt)
	if err != nil {
		return nil, err
	}
	rep.Sections = append(rep.Sections, Section{Notes: []string{
		"paper: only removing the reserve nest changes configure results (≈-5% on 6130/5218, up to -16% on E7-8870 v4)",
	}})
	return rep, nil
}

// ablationDacapo is §5.3's study on h2, graphchi-eval and tradebeans.
func ablationDacapo(opt Options) (*Report, error) {
	variants := []string{"nospin", "nocompact", "noreserve", "smax=1", "smax=4", "smax=20", "premove=1"}
	rep, err := ablationGrid("ablation-dacapo",
		"Nest ablation on DaCapo (speedup of variant vs full Nest-schedutil)",
		[]string{"dacapo/h2", "dacapo/graphchi-eval", "dacapo/tradebeans"},
		variants, []string{"6130-2", "6130-4", "5218"}, opt)
	if err != nil {
		return nil, err
	}
	rep.Sections = append(rep.Sections, Section{Notes: []string{
		"paper: removing spinning costs 10-26%; too-short or too-long spins also lose;",
		"removing compaction lets h2/graphchi spread (≈-5%); the reserve nest matters little here",
	}})
	return rep, nil
}

// ablationNAS is §5.4's study: work conservation and recently-used-core
// favouring on BT and MG.
func ablationNAS(opt Options) (*Report, error) {
	variants := []string{"nowc", "noattach", "nospin", "nocompact", "noreserve"}
	rep, err := ablationGrid("ablation-nas",
		"Nest ablation on NAS (speedup of variant vs full Nest-schedutil)",
		[]string{"nas/bt.C", "nas/mg.C"},
		variants, []string{"5218", "e7-8870"}, opt)
	if err != nil {
		return nil, err
	}
	rep.Sections = append(rep.Sections, Section{Notes: []string{
		"paper: favouring recently used cores matters most (MG -15% on the 5218 without it);",
		"compaction, the reserve nest and spinning are rarely triggered by NAS",
	}})
	return rep, nil
}

func init() {
	registerExperiment(&Experiment{ID: "ablation-configure", Title: "Nest feature/parameter ablation on configure (§5.2)", Run: ablationConfigure})
	registerExperiment(&Experiment{ID: "ablation-dacapo", Title: "Nest feature ablation on DaCapo (§5.3)", Run: ablationDacapo})
	registerExperiment(&Experiment{ID: "ablation-nas", Title: "Nest feature ablation on NAS (§5.4)", Run: ablationNAS})
}
