package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// nasProfile models a NAS Parallel Benchmark kernel (§5.4): OpenMP with
// one thread per hardware thread, iterating over barrier-synchronised
// compute chunks. In the optimal schedule every thread sits on its own
// core for the whole run; the scheduler's job is just not to get in the
// way. Imbalance between threads (CV) plus barrier wake storms are where
// placement quality shows.
type nasProfile struct {
	// Iters is the number of barrier intervals at paper scale.
	Iters int
	// CV is the per-chunk imbalance between threads.
	CV float64
	// Span is an optional serial startup phase.
	Span sim.Duration
}

// install forks one worker per hardware thread; each iterates
// compute-then-barrier. The chunk size is derived from the kernel's paper
// runtime on the 64-core 6130 so relative kernel weights are right; on
// larger machines the same total work spreads over more threads.
func (p nasProfile) install(m *cpu.Machine, scale float64, paperSecs float64) {
	threads := m.Topo().NumCores()
	iters := scaleCount(p.Iters, scale, 8)
	// Per-iteration chunk: the paper runtime divided by iteration count,
	// derated for SMT sharing (both hyperthreads are busy all run long).
	chunk := sim.Duration(paperSecs * float64(sim.Second) * 0.62 / float64(p.Iters))
	b := proc.NewBarrier("nas", threads)
	b.ActiveWait = true // OpenMP's default active wait policy
	work := jitterCycles(m, chunk, p.CV)

	worker := func() proc.Behavior {
		remaining := iters
		computing := false
		var chunk proc.Compute // owned action (see proc.Action)
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			if remaining <= 0 {
				return proc.Exit{}
			}
			if !computing {
				computing = true
				chunk.Cycles = work(r)
				return &chunk
			}
			computing = false
			remaining--
			return proc.BarrierWait{B: b}
		}
	}

	// The OpenMP master participates as worker 0: exactly one thread per
	// hardware thread, as the paper's optimal placement assumes.
	var setup []proc.Action
	if p.Span > 0 {
		setup = append(setup, compute(m, p.Span))
	}
	for i := 1; i < threads; i++ {
		setup = append(setup, proc.Fork{Name: fmt.Sprintf("omp-%d", i), Behavior: worker()})
	}
	mainWorker := worker()
	phase := 0
	idx := 0
	m.Spawn("nas-main", func(t *proc.Task, r *sim.Rand) proc.Action {
		switch phase {
		case 0:
			if idx < len(setup) {
				a := setup[idx]
				idx++
				return a
			}
			phase = 1
			fallthrough
		case 1:
			a := mainWorker(t, r)
			if _, done := a.(proc.Exit); !done {
				return a
			}
			phase = 2
			return proc.WaitChildren{}
		default:
			return proc.Exit{}
		}
	})
}

// nasKernels lists the nine class-C kernels of Figure 12 with their
// CFS-schedutil runtimes on the 64-core 6130. Barrier densities reflect
// each kernel's character: EP is embarrassingly parallel, CG/LU/SP
// synchronise constantly, LU's wavefront is the most imbalanced.
var nasKernels = []struct {
	name string
	secs float64
	prof nasProfile
}{
	{"bt.C", 32.69, nasProfile{Iters: 400, CV: 0.05, Span: 20 * msec}},
	{"cg.C", 8.73, nasProfile{Iters: 600, CV: 0.04}},
	{"ep.C", 3.03, nasProfile{Iters: 6, CV: 0.02}},
	{"ft.C", 8.03, nasProfile{Iters: 80, CV: 0.05, Span: 30 * msec}},
	{"is.C", 0.75, nasProfile{Iters: 24, CV: 0.08}},
	{"lu.C", 22.64, nasProfile{Iters: 900, CV: 0.15}},
	{"mg.C", 3.06, nasProfile{Iters: 300, CV: 0.10}},
	{"sp.C", 24.89, nasProfile{Iters: 800, CV: 0.06}},
	{"ua.C", 25.46, nasProfile{Iters: 500, CV: 0.12}},
}

// NASNames lists the NAS kernel names in figure order.
func NASNames() []string {
	out := make([]string, len(nasKernels))
	for i, k := range nasKernels {
		out[i] = k.name + ".x"
	}
	return out
}

func init() {
	for _, k := range nasKernels {
		k := k
		register(&Workload{
			Name:         "nas/" + k.name,
			Suite:        "nas",
			PaperSeconds: k.secs,
			Install: func(m *cpu.Machine, scale float64) {
				k.prof.install(m, scale, k.secs)
			},
		})
	}
	if len(nasKernels) != 9 {
		panic(fmt.Sprintf("nas suite has %d kernels, want 9", len(nasKernels)))
	}
}
