package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// shellProfile models a software-configuration script (§5.2): a shell
// forks hundreds of mostly sequential, short-lived commands — compiler
// probes, feature tests — with occasional small parallel bursts (a
// compile-and-link pair), and a few longer tools.
type shellProfile struct {
	// Commands is the number of forked commands at paper scale.
	Commands int
	// MeanLen is the mean command compute time (at nominal); CV its
	// log-normal coefficient of variation.
	MeanLen sim.Duration
	CV      float64
	// Think is the shell's own compute between forks (parsing script).
	Think sim.Duration
	// BurstProb is the chance a step forks two concurrent children
	// (pipeline pairs) instead of one.
	BurstProb float64
	// LongProb is the chance of a 30x longer command; §5.2 notes that
	// roughly half of a configure run is longer non-concurrent tasks.
	LongProb float64
}

// longFactor stretches the occasional long command so that the long tail
// carries about half of the total compute, as in the paper's trace.
const longFactor = 30

// install builds the configure root task: a shell that repeatedly forks
// one command (or a two-command burst), sometimes does a little of its
// own work, and waits for the children before the next step.
func (p shellProfile) install(m *cpu.Machine, scale float64) {
	cmds := scaleCount(p.Commands, scale, 20)
	work := jitterCycles(m, p.MeanLen, p.CV)
	stub := nominalCycles(m, 40*sim.Microsecond)
	think := nominalCycles(m, p.Think)
	thinkAct := proc.Action(proc.Compute{Cycles: think})

	emitted := 0
	var pending proc.FIFO[proc.Action]
	m.Spawn("sh", func(t *proc.Task, r *sim.Rand) proc.Action {
		for pending.Len() == 0 {
			if emitted >= cmds {
				return proc.Exit{}
			}
			n := 1
			if r.Float64() < p.BurstProb && emitted+1 < cmds {
				n = 2
			}
			for i := 0; i < n; i++ {
				c := work(r)
				if r.Float64() < p.LongProb {
					c *= longFactor
				}
				// fork + exec, as a real shell does: the child runs a
				// sliver of shell stub, execs (re-running placement),
				// then does the command's work.
				pending.Push(&newExecKid("cmd", stub, c).fork)
			}
			emitted += n
			if think > 0 && r.Float64() < 0.3 {
				pending.Push(thinkAct)
			}
			pending.Push(proc.WaitChildren{})
		}
		return pending.Pop()
	})
}

// configureApps lists the Phoronix Timed Code Compilation configure
// scripts (§5.2, Figures 4-7) with their CFS-schedutil runtimes on the
// 64-core 5218 and shapes chosen to match the paper's description.
var configureApps = []struct {
	name string
	secs float64
	prof shellProfile
}{
	{"erlang", 13.27, shellProfile{Commands: 5900, MeanLen: 1200 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.25, LongProb: 0.04}},
	{"ffmpeg", 5.33, shellProfile{Commands: 2400, MeanLen: 1200 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.30, LongProb: 0.04}},
	{"gcc", 1.32, shellProfile{Commands: 600, MeanLen: 1100 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.25, LongProb: 0.04}},
	{"gdb", 1.17, shellProfile{Commands: 520, MeanLen: 1100 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.25, LongProb: 0.04}},
	{"imagemagick", 14.78, shellProfile{Commands: 6600, MeanLen: 1200 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.20, LongProb: 0.05}},
	{"linux", 2.46, shellProfile{Commands: 1100, MeanLen: 1100 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.20, LongProb: 0.03}},
	{"llvm_ninja", 10.45, shellProfile{Commands: 4600, MeanLen: 1200 * sim.Microsecond, CV: 0.9, Think: 150 * sim.Microsecond, BurstProb: 0.30, LongProb: 0.05}},
	{"llvm_unix", 12.71, shellProfile{Commands: 5600, MeanLen: 1200 * sim.Microsecond, CV: 0.9, Think: 150 * sim.Microsecond, BurstProb: 0.30, LongProb: 0.05}},
	{"mplayer", 9.94, shellProfile{Commands: 4400, MeanLen: 1200 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.25, LongProb: 0.04}},
	// NodeJS's configure is "trivial": a few longer python steps with
	// little forking, hence no speedup for anyone.
	{"nodejs", 1.56, shellProfile{Commands: 45, MeanLen: 6 * sim.Millisecond, CV: 0.5, Think: 12 * sim.Millisecond, BurstProb: 0.05, LongProb: 0.0}},
	{"php", 13.15, shellProfile{Commands: 5800, MeanLen: 1200 * sim.Microsecond, CV: 0.8, Think: 150 * sim.Microsecond, BurstProb: 0.25, LongProb: 0.04}},
}

// ConfigureNames lists the configure-suite app names in figure order.
func ConfigureNames() []string {
	out := make([]string, len(configureApps))
	for i, a := range configureApps {
		out[i] = a.name
	}
	return out
}

func init() {
	for _, app := range configureApps {
		app := app
		register(&Workload{
			Name:         "configure/" + app.name,
			Suite:        "configure",
			PaperSeconds: app.secs,
			Install: func(m *cpu.Machine, scale float64) {
				app.prof.install(m, scale)
			},
		})
	}
	if len(configureApps) != 11 {
		panic(fmt.Sprintf("configure suite has %d apps, want 11", len(configureApps)))
	}
}
