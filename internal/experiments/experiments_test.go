package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestSchedulerFactories(t *testing.T) {
	for _, name := range []string{"cfs", "nest", "smove", "nest:nospin", "nest:premove=4,smax=1"} {
		f, err := Schedulers(name)
		if err != nil {
			t.Fatalf("Schedulers(%q): %v", name, err)
		}
		p := f()
		if p == nil {
			t.Fatalf("Schedulers(%q) built nil policy", name)
		}
		// Two calls must give independent instances (policies are
		// stateful).
		if f() == p {
			t.Fatalf("Schedulers(%q) reuses policy instances", name)
		}
	}
	if _, err := Schedulers("fifo"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Schedulers("nest:bogusflag"); err == nil {
		t.Fatal("bogus nest flag accepted")
	}
	// A zero or negative override would silently run another variant;
	// the error points at the flag that disables the feature.
	for name, flag := range map[string]string{
		"nest:rmax=0": "noreserve", "nest:smax=-1": "nospin",
		"nest:premove=0": "nocompact", "nest:rimpatient=-1": "noimpatience",
	} {
		_, err := Schedulers(name)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("Schedulers(%q) error %v, want one naming %s", name, err, flag)
		}
	}
}

func TestNestVariantParsing(t *testing.T) {
	cfg, err := NestVariant("nest:nospin,premove=4,rmax=10,smax=1,rimpatient=7,noattach")
	if err != nil {
		t.Fatalf("variant rejected: %v", err)
	}
	if !cfg.DisableSpin || !cfg.DisableAttach {
		t.Fatal("toggles not applied")
	}
	if cfg.PRemove != 4*sim.Tick || cfg.SMax != 1*sim.Tick {
		t.Fatalf("tick params wrong: premove=%v smax=%v", cfg.PRemove, cfg.SMax)
	}
	if cfg.RMax != 10 || cfg.RImpatient != 7 {
		t.Fatalf("count params wrong: rmax=%d rimpatient=%d", cfg.RMax, cfg.RImpatient)
	}
	for _, bad := range []string{
		"cfs", "nest:", "nest:rmax=0", "nest:premove=0", "nest:smax=0",
		"nest:smax=-1", "nest:rmax=-3", "nest:rimpatient=-1",
		"nest:smax=2x", "nest:rmax=", "nest:rmax", "nest:nospin=1",
	} {
		if _, err := NestVariant(bad); err == nil {
			t.Errorf("NestVariant(%q) accepted", bad)
		}
	}
}

func TestNestParamScheduler(t *testing.T) {
	for _, c := range []struct {
		param string
		v     int
		want  string
	}{
		{"smax", 4, "nest:smax=4"},
		{"smax", 0, "nest:nospin"},
		{"premove", 0, "nest:nocompact"},
		{"rmax", 0, "nest:noreserve"},
		{"rimpatient", 0, "nest:noimpatience"},
		{"rimpatient", 2, "nest:rimpatient=2"},
	} {
		got, err := NestParamScheduler(c.param, c.v)
		if err != nil || got != c.want {
			t.Errorf("NestParamScheduler(%q, %d) = %q, %v; want %q", c.param, c.v, got, err, c.want)
		}
	}
	for _, c := range []struct {
		param string
		v     int
	}{{"bogus", 1}, {"bogus", 0}, {"smax", -1}} {
		if got, err := NestParamScheduler(c.param, c.v); err == nil {
			t.Errorf("NestParamScheduler(%q, %d) = %q, want an error", c.param, c.v, got)
		}
	}
}

func TestRunUnknowns(t *testing.T) {
	if _, err := Run(RunSpec{Machine: "bogus", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/gcc"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := Run(RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "bogus", Workload: "configure/gcc"}); err == nil {
		t.Fatal("unknown governor accepted")
	}
	if _, err := Run(RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "bogus"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunProducesResult(t *testing.T) {
	res, err := Run(RunSpec{
		Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/gcc", Scale: 0.01, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Scheduler != "nest" || res.Governor != "schedutil" || res.Workload != "configure/gcc" {
		t.Fatalf("labels wrong: %s/%s/%s", res.Scheduler, res.Governor, res.Workload)
	}
}

func TestRunRepeatsVarySeeds(t *testing.T) {
	rs, err := RunRepeats(RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/gcc", Scale: 0.01, Seed: 1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Seed == rs[1].Seed || rs[1].Seed == rs[2].Seed {
		t.Fatal("seeds did not advance")
	}
	if rs[0].Runtime == rs[1].Runtime && rs[1].Runtime == rs[2].Runtime {
		t.Fatal("different seeds gave identical runtimes (RNG not wired)")
	}
}

func TestExperimentRegistryCoversPaper(t *testing.T) {
	need := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13",
		"table1", "table2", "table3", "table4", "table5",
		"ablation-configure", "ablation-dacapo", "ablation-nas",
		"hackbench", "schbench", "server", "multiapp", "monosocket",
	}
	have := map[string]bool{}
	for _, id := range List() {
		have[id] = true
	}
	for _, id := range need {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, err := ByID("fig1"); err == nil {
		t.Error("fig1 (a diagram, not an experiment) should not exist")
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "T",
		Sections: []Section{{
			Heading: "h",
			Columns: []string{"a", "bbbb"},
			Rows:    [][]string{{"row1", "1"}, {"longer-row", "22"}},
			Notes:   []string{"n1"},
		}},
	}
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"== x: T ==", "-- h --", "longer-row", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableExperimentsRunFast(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table5"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Sections) == 0 || len(rep.Sections[0].Rows) == 0 {
			t.Fatalf("%s produced empty report", id)
		}
	}
}

func TestFig2SmallScale(t *testing.T) {
	e, _ := ByID("fig2")
	rep, err := e.Run(Options{Scale: 0.02, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) != 2 {
		t.Fatalf("fig2 sections = %d", len(rep.Sections))
	}
	for _, s := range rep.Sections {
		if !strings.Contains(s.Pre, "core") {
			t.Fatal("fig2 trace missing core rows")
		}
	}
}

func TestFig5OneMachineSmall(t *testing.T) {
	e, _ := ByID("fig5")
	rep, err := e.Run(Options{Scale: 0.01, Runs: 1, Machines: []string{"5218"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) != 1 {
		t.Fatalf("sections = %d", len(rep.Sections))
	}
	if len(rep.Sections[0].Rows) != 11 {
		t.Fatalf("rows = %d, want 11 configure apps", len(rep.Sections[0].Rows))
	}
}

func TestAblationVariantGrid(t *testing.T) {
	rep, err := ablationGrid("x", "t",
		[]string{"configure/gcc"}, []string{"nospin"}, []string{"5218"},
		Options{Scale: 0.01, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections[0].Rows) != 1 {
		t.Fatal("ablation row missing")
	}
}

func TestExtensionExperimentsRun(t *testing.T) {
	for _, id := range []string{"ext-flatturbo", "scoreboard"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(Options{Scale: 0.01, Runs: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Sections) == 0 || len(rep.Sections[0].Rows) == 0 {
			t.Fatalf("%s: empty report", id)
		}
	}
}

func TestNaiveSchedulersRegistered(t *testing.T) {
	for _, name := range []string{"random", "sticky", "cfs:claims"} {
		res, err := Run(RunSpec{
			Machine: "5218", Scheduler: name, Governor: "schedutil",
			Workload: "configure/gcc", Scale: 0.01, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Runtime <= 0 {
			t.Fatalf("%s: empty run", name)
		}
	}
}
