package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// javaProfile models a DaCapo application (§5.3): a main thread starts
// worker threads that alternate compute bursts with brief waits (locks,
// I/O, queue handoffs), plus optional background JIT/GC helpers. Apps
// with many threads and short bursts wake constantly and are exactly the
// "number and set of concurrent tasks varies" pattern Nest targets; apps
// with one or a few steadily computing threads are the paper's blue
// (parity) cases.
type javaProfile struct {
	// Threads is the number of worker threads.
	Threads int
	// Burst is the mean compute per burst (at nominal); Gap the mean
	// wait between bursts. Their ratio sets the effective concurrency.
	Burst sim.Duration
	Gap   sim.Duration
	// BurstCV jitters burst lengths; GapCV jitters waits. A heavy-tailed
	// gap distribution (CV >= 1) means threads regularly outsleep Nest's
	// compaction deadline, so the primary nest shrinks to the effective
	// concurrency and threads share warm cores.
	BurstCV float64
	GapCV   float64
	// Stagger is main-thread compute between thread starts.
	Stagger sim.Duration
	// Helpers adds background JIT/GC tasks that wake periodically.
	Helpers int
	// HelperPeriod / HelperWork shape the helpers.
	HelperPeriod sim.Duration
	HelperWork   sim.Duration
}

// install computes per-thread iteration counts from the app's paper
// runtime so the modelled run matches the reported length at scale 1.
func (p javaProfile) install(m *cpu.Machine, scale float64, paperSecs float64) {
	period := p.Burst + p.Gap
	iters := int(paperSecs * float64(sim.Second) / float64(period) * scale)
	if iters < 10 {
		iters = 10
	}
	work := jitterCycles(m, p.Burst, p.BurstCV)
	gcv := p.GapCV
	if gcv == 0 {
		gcv = 0.5
	}
	gap := sim.NewLogNormal(p.Gap, gcv)
	nominal := m.Spec().Nominal

	// Workers' waits are lock/queue waits on other threads, not absolute
	// time: they stretch and shrink with how fast the system is actually
	// running. Each worker scales its next wait by the wall-time ratio of
	// its last burst (1.0 = burst ran at nominal frequency with no queue
	// delay). A fixed fraction stays wall-clock (real I/O).
	const fixedWaitFrac = 0.25
	mkWorker := func() proc.Behavior {
		remaining := iters
		computing := false
		var burstStart sim.Time
		var burstIdeal sim.Duration
		var burst proc.Compute // owned actions (see proc.Action)
		var wait proc.Sleep
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			if remaining <= 0 {
				return proc.Exit{}
			}
			if !computing {
				computing = true
				c := work(r)
				burstStart = t.Now
				burstIdeal = proc.TimeFor(c, nominal)
				burst.Cycles = c
				return &burst
			}
			computing = false
			remaining--
			ratio := 1.0
			if burstIdeal > 0 {
				ratio = float64(t.Now-burstStart) / float64(burstIdeal)
				if ratio < 0.4 {
					ratio = 0.4
				}
				if ratio > 3 {
					ratio = 3
				}
			}
			d := gap.Draw(r)
			wait.D = sim.Duration(float64(d) * (fixedWaitFrac + (1-fixedWaitFrac)*ratio))
			return &wait
		}
	}

	helperIters := int(paperSecs * float64(sim.Second) / float64(p.HelperPeriod+1) * scale)
	mkHelper := func() proc.Behavior {
		remaining := helperIters
		computing := false
		hw := jitterCycles(m, p.HelperWork, 0.4)
		helperSleep := sim.NewLogNormal(p.HelperPeriod, 0.3)
		var burst proc.Compute // owned actions (see proc.Action)
		var wait proc.Sleep
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			if remaining <= 0 {
				return proc.Exit{}
			}
			if !computing {
				computing = true
				burst.Cycles = hw(r)
				return &burst
			}
			computing = false
			remaining--
			wait.D = helperSleep.Draw(r)
			return &wait
		}
	}

	stagger := nominalCycles(m, p.Stagger)
	var actions []proc.Action
	for i := 0; i < p.Threads; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("worker-%d", i), Behavior: mkWorker()})
		if stagger > 0 {
			actions = append(actions, proc.Compute{Cycles: stagger})
		}
	}
	for i := 0; i < p.Helpers && p.HelperPeriod > 0; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("helper-%d", i), Behavior: mkHelper()})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("java-main", proc.Script(actions...))
}

const msec = sim.Millisecond

// dacapoApps lists the 21 DaCapo benchmarks of Figure 10 with their
// CFS-schedutil runtimes on the 64-core 6130 and shapes chosen from the
// paper's underload (u:) annotations and descriptions:
//
//   - one-or-few-task apps (the figure's blue names): one or two workers
//     computing in long bursts, only JIT/GC helpers beside them;
//   - moderately parallel, frequently blocking apps (h2, tradebeans,
//     graphchi-eval, tomcat-eval, xalan, pmd): many workers with short
//     bursts and comparable gaps — high underload, Nest's target;
//   - steadily parallel apps (sunflow, lusearch): workers with long
//     bursts and tiny gaps — saturating, parity expected.
var dacapoApps = []struct {
	name string
	secs float64 // 64-core 6130 CFS-schedutil runtime
	prof javaProfile
}{
	{"avrora", 25.50, javaProfile{Threads: 8, Burst: 600 * sim.Microsecond, Gap: 1200 * sim.Microsecond, BurstCV: 0.5, Helpers: 1, HelperPeriod: 40 * msec, HelperWork: msec}},
	{"batik-eval", 111, javaProfile{Threads: 1, Burst: 60 * msec, Gap: 2 * msec, BurstCV: 0.3, Helpers: 1, HelperPeriod: 60 * msec, HelperWork: msec}},
	{"biojava-eval", 199, javaProfile{Threads: 1, Burst: 80 * msec, Gap: 1 * msec, BurstCV: 0.3, Helpers: 1, HelperPeriod: 80 * msec, HelperWork: msec}},
	{"eclipse-eval", 207, javaProfile{Threads: 2, Burst: 30 * msec, Gap: 4 * msec, BurstCV: 0.5, Helpers: 2, HelperPeriod: 50 * msec, HelperWork: msec}},
	{"fop", 3.19, javaProfile{Threads: 1, Burst: 20 * msec, Gap: 1500 * sim.Microsecond, BurstCV: 0.5, Helpers: 2, HelperPeriod: 20 * msec, HelperWork: 2 * msec}},
	{"jme-eval", 81.35, javaProfile{Threads: 2, Burst: 16 * msec, Gap: 4 * msec, BurstCV: 0.4, Helpers: 1, HelperPeriod: 50 * msec, HelperWork: msec}},
	{"jython", 22.71, javaProfile{Threads: 1, Burst: 40 * msec, Gap: 2 * msec, BurstCV: 0.4, Helpers: 2, HelperPeriod: 40 * msec, HelperWork: msec}},
	{"kafka-eval", 59.10, javaProfile{Threads: 3, Burst: 8 * msec, Gap: 6 * msec, BurstCV: 0.5, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"luindex", 4.91, javaProfile{Threads: 2, Burst: 10 * msec, Gap: 2 * msec, BurstCV: 0.5, Helpers: 1, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"tradesoap-eval", 53.12, javaProfile{Threads: 6, Burst: 4 * msec, Gap: 4 * msec, BurstCV: 0.6, Helpers: 2, HelperPeriod: 40 * msec, HelperWork: msec}},
	{"cassandra-eval", 57.39, javaProfile{Threads: 24, Burst: 3 * msec, Gap: 5 * msec, BurstCV: 0.6, GapCV: 0.9, Helpers: 2, HelperPeriod: 40 * msec, HelperWork: msec}},
	{"graphchi-eval", 9.48, javaProfile{Threads: 48, Burst: 1000 * sim.Microsecond, Gap: 5 * msec, BurstCV: 0.7, GapCV: 1.4, Stagger: 500 * sim.Microsecond, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"h2", 41.89, javaProfile{Threads: 32, Burst: 1500 * sim.Microsecond, Gap: 8 * msec, BurstCV: 0.7, GapCV: 1.3, Stagger: 300 * sim.Microsecond, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"lusearch", 3.34, javaProfile{Threads: 64, Burst: 6 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.5, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"lusearch-fix", 3.31, javaProfile{Threads: 64, Burst: 6 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.5, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"pmd", 9.02, javaProfile{Threads: 48, Burst: 1500 * sim.Microsecond, Gap: 4 * msec, BurstCV: 0.7, GapCV: 1.1, Stagger: 300 * sim.Microsecond, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"sunflow", 7.27, javaProfile{Threads: 64, Burst: 10 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.4, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"tomcat-eval", 25.88, javaProfile{Threads: 64, Burst: 600 * sim.Microsecond, Gap: 4 * msec, BurstCV: 0.8, GapCV: 1.2, Stagger: 300 * sim.Microsecond, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"tradebeans", 60.21, javaProfile{Threads: 64, Burst: 500 * sim.Microsecond, Gap: 5 * msec, BurstCV: 0.8, GapCV: 1.5, Stagger: 300 * sim.Microsecond, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"xalan", 4.86, javaProfile{Threads: 64, Burst: 1200 * sim.Microsecond, Gap: 1500 * sim.Microsecond, BurstCV: 0.7, GapCV: 1.0, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
	{"zxing-eval", 10.71, javaProfile{Threads: 32, Burst: 2500 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.6, GapCV: 1.0, Helpers: 2, HelperPeriod: 30 * msec, HelperWork: msec}},
}

// DacapoNames lists the DaCapo app names in figure order.
func DacapoNames() []string {
	out := make([]string, len(dacapoApps))
	for i, a := range dacapoApps {
		out[i] = a.name
	}
	return out
}

func init() {
	for _, app := range dacapoApps {
		app := app
		register(&Workload{
			Name:         "dacapo/" + app.name,
			Suite:        "dacapo",
			PaperSeconds: app.secs,
			Install: func(m *cpu.Machine, scale float64) {
				app.prof.install(m, scale, app.secs)
			},
		})
	}
	if len(dacapoApps) != 21 {
		panic(fmt.Sprintf("dacapo suite has %d apps, want 21", len(dacapoApps)))
	}
}
