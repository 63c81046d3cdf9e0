package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/sim"
)

// ptsProfile models a Phoronix multicore test (§5.5, Figure 13, Tables
// 4/5). Two shapes cover the suite:
//
//   - worker mode: Threads persistent workers alternating bursts and
//     gaps, optionally barrier-synchronised (OpenMP-style) — covers the
//     steady all-core tests (cpuminer, oidn, onednn RNN), the pipelines
//     (libgav1, ffmpeg) and the bounded-parallelism tests (rodinia).
//   - storm mode (Storm > 0): a dispatcher repeatedly spawns batches of
//     Storm short-lived tasks and waits for them — the zstd compression
//     shape whose very short tasks never see a warm core under
//     CFS-schedutil.
type ptsProfile struct {
	Threads int
	Burst   sim.Duration
	Gap     sim.Duration
	BurstCV float64
	GapCV   float64
	// Barrier synchronises workers each iteration.
	Barrier bool
	// ScaleGap makes waits track progress (queue/lock waits).
	ScaleGap bool
	// StartIdle makes workers sleep before their first burst (OpenMP
	// pools created long before the compute phase): forks then land on
	// one socket, which is what lets CFS stack Rodinia there.
	StartIdle sim.Duration

	// Storm mode.
	Storm     int          // batch size
	StormTask sim.Duration // short-task length
}

func (p ptsProfile) install(m *cpu.Machine, scale float64, paperSecs float64) {
	p.installNamed(m, scale, paperSecs, "pts")
}

// installNamed installs the profile with a distinguishable task-name
// prefix, so multi-application runs can attribute completions.
func (p ptsProfile) installNamed(m *cpu.Machine, scale float64, paperSecs float64, prefix string) {
	if p.Storm > 0 {
		p.installStorm(m, scale, paperSecs)
		return
	}
	p.installWorkers(m, scale, paperSecs, prefix)
}

// installStorm builds the dispatcher-plus-batches shape.
func (p ptsProfile) installStorm(m *cpu.Machine, scale float64, paperSecs float64) {
	batchSpan := p.StormTask + 300*sim.Microsecond
	batches := scaleCount(int(paperSecs*float64(sim.Second)/float64(batchSpan)), scale, 10)
	work := jitterCycles(m, p.StormTask, maxf(p.BurstCV, 0.2))

	batch := 0
	var pending []proc.Action
	m.Spawn("dispatcher", func(t *proc.Task, r *sim.Rand) proc.Action {
		for len(pending) == 0 {
			if batch >= batches {
				return proc.Exit{}
			}
			batch++
			for i := 0; i < p.Storm; i++ {
				pending = append(pending, proc.Fork{
					Name:     "blk",
					Behavior: proc.Once(proc.Compute{Cycles: work(r)}),
				})
			}
			pending = append(pending, proc.WaitChildren{})
		}
		a := pending[0]
		pending = pending[1:]
		return a
	})
}

// installWorkers builds the persistent-worker shape.
func (p ptsProfile) installWorkers(m *cpu.Machine, scale float64, paperSecs float64, prefix string) {
	period := p.Burst + p.Gap
	iters := scaleCount(int(paperSecs*float64(sim.Second)/float64(period)), scale, 10)
	work := jitterCycles(m, p.Burst, p.BurstCV)
	nominal := m.Spec().Nominal
	startIdle := sim.NewLogNormal(p.StartIdle, 0.3)
	gap := sim.NewLogNormal(p.Gap, maxf(p.GapCV, 0.3))

	var bar *proc.Barrier
	if p.Barrier {
		bar = proc.NewBarrier("pts", p.Threads)
		bar.ActiveWait = true // OpenMP-style tests busy-wait at barriers
	}

	worker := func() proc.Behavior {
		remaining := iters
		computing := false
		started := p.StartIdle <= 0
		var burstStart sim.Time
		var burstIdeal sim.Duration
		var burst proc.Compute // owned actions (see proc.Action)
		var wait proc.Sleep
		return func(t *proc.Task, r *sim.Rand) proc.Action {
			if !started {
				started = true
				return proc.Sleep{D: startIdle.Draw(r)}
			}
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
			if bar != nil {
				return proc.BarrierWait{B: bar}
			}
			if p.Gap <= 0 {
				if remaining <= 0 {
					return proc.Exit{}
				}
				computing = true
				c := work(r)
				burstStart = t.Now
				burstIdeal = proc.TimeFor(c, nominal)
				burst.Cycles = c
				return &burst
			}
			d := gap.Draw(r)
			if p.ScaleGap && burstIdeal > 0 {
				ratio := float64(t.Now-burstStart) / float64(burstIdeal)
				if ratio < 0.4 {
					ratio = 0.4
				}
				if ratio > 3 {
					ratio = 3
				}
				d = sim.Duration(float64(d) * (0.25 + 0.75*ratio))
			}
			wait.D = d
			return &wait
		}
	}

	actions := make([]proc.Action, 0, p.Threads+1)
	for i := 0; i < p.Threads; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("%s-%d", prefix, i), Behavior: worker()})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn(prefix+"-main", proc.Script(actions...))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// ptsTest couples a Figure 13 test with its Table 5 description.
type ptsTest struct {
	name string
	desc string
	secs float64
	prof ptsProfile
}

// phoronixNamed lists the 27 tests Figure 13 reports, shaped after the
// paper's per-test discussion. Thread counts of 0 mean "one per core",
// resolved at install time.
var phoronixNamed = []ptsTest{
	{"arrayfire-2", "ArrayFire 3.7 - BLAS CPU", 12, ptsProfile{Threads: 0, Burst: 4 * msec, Gap: 600 * sim.Microsecond, BurstCV: 0.4}},
	{"arrayfire-3", "ArrayFire 3.7 - Conjugate Gradient CPU", 10, ptsProfile{Threads: 16, Burst: 1200 * sim.Microsecond, Gap: 1500 * sim.Microsecond, BurstCV: 0.5, Barrier: true}},
	{"askap-5", "ASKAP 1.0 - Hogbom Clean OpenMP", 15, ptsProfile{Threads: 0, Burst: 5 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.3, Barrier: true}},
	{"cassandra-1", "Apache Cassandra 4.0 - Writes", 20, ptsProfile{Threads: 48, Burst: 1200 * sim.Microsecond, Gap: 4 * msec, BurstCV: 0.8, GapCV: 1.3, ScaleGap: true}},
	{"cpuminer-opt-6", "Cpuminer-Opt 3.15.5 - Blake-2 S", 15, ptsProfile{Threads: 0, Burst: 20 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.1}},
	{"cpuminer-opt-7", "Cpuminer-Opt 3.15.5 - Skeincoin", 15, ptsProfile{Threads: 0, Burst: 20 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.1}},
	{"cpuminer-opt-8", "Cpuminer-Opt 3.15.5 - Myriad-Groestl", 15, ptsProfile{Threads: 0, Burst: 18 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.1}},
	{"cpuminer-opt-9", "Cpuminer-Opt 3.15.5 - Triple SHA-256, Onecoin", 15, ptsProfile{Threads: 0, Burst: 22 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.1}},
	{"cpuminer-opt-11", "Cpuminer-Opt 3.15.5 - Quad SHA-256, Pyrite", 15, ptsProfile{Threads: 0, Burst: 22 * msec, Gap: 200 * sim.Microsecond, BurstCV: 0.1}},
	{"ffmpeg-1", "FFmpeg 4.0.2 - H.264 HD To NTSC DV", 12, ptsProfile{Threads: 16, Burst: 2 * msec, Gap: 1500 * sim.Microsecond, BurstCV: 0.5, GapCV: 0.8, ScaleGap: true}},
	{"graphics-magick-4", "GraphicsMagick 1.3.33 - Resizing", 14, ptsProfile{Threads: 0, Burst: 3 * msec, Gap: 800 * sim.Microsecond, BurstCV: 0.4, Barrier: true}},
	{"libavif-avifenc-1", "libavif avifenc 0.9.0 - Speed 6, Lossless", 25, ptsProfile{Threads: 12, Burst: 5 * msec, Gap: 700 * sim.Microsecond, BurstCV: 0.5, GapCV: 0.8}},
	{"libgav1-1", "libgav1 0.16.3 - Summer Nature 4K", 18, ptsProfile{Threads: 12, Burst: 1800 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.7, GapCV: 1.2, ScaleGap: true}},
	{"libgav1-2", "libgav1 0.16.3 - Summer Nature 1080p", 12, ptsProfile{Threads: 8, Burst: 1200 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.7, GapCV: 1.2, ScaleGap: true}},
	{"libgav1-3", "libgav1 0.16.3 - Chimera 1080p 10-bit", 16, ptsProfile{Threads: 10, Burst: 1500 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.7, GapCV: 1.2, ScaleGap: true}},
	{"libgav1-4", "libgav1 0.16.3 - Chimera 1080p", 14, ptsProfile{Threads: 10, Burst: 1300 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.7, GapCV: 1.2, ScaleGap: true}},
	{"oidn-1", "Intel Open Image Denoise 1.4.0 - RT.hdr_alb_nrm", 12, ptsProfile{Threads: 0, Burst: 15 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"oidn-2", "Intel Open Image Denoise 1.4.0 - RT.ldr_alb_nrm", 12, ptsProfile{Threads: 0, Burst: 15 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"oidn-3", "Intel Open Image Denoise 1.4.0 - RTLightmap.hdr", 14, ptsProfile{Threads: 0, Burst: 18 * msec, Gap: 300 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"onednn-4", "oneDNN 2.1.2 - IP Shapes 3D f32", 10, ptsProfile{Threads: 4, Burst: 900 * sim.Microsecond, Gap: 1200 * sim.Microsecond, BurstCV: 0.5, GapCV: 0.9}},
	{"onednn-5", "oneDNN 2.1.2 - IP Shapes 1D f32", 10, ptsProfile{Threads: 2, Burst: 700 * sim.Microsecond, Gap: 1500 * sim.Microsecond, BurstCV: 0.5, GapCV: 0.9}},
	{"onednn-7", "oneDNN 2.1.2 - RNN Training f32", 20, ptsProfile{Threads: 0, Burst: 12 * msec, Gap: 400 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"onednn-11", "oneDNN 2.1.2 - RNN Training bf16", 20, ptsProfile{Threads: 0, Burst: 12 * msec, Gap: 400 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"onednn-14", "oneDNN 2.1.2 - RNN Training u8s8f32", 20, ptsProfile{Threads: 0, Burst: 12 * msec, Gap: 400 * sim.Microsecond, BurstCV: 0.2, Barrier: true}},
	{"rodinia-5", "Rodinia 3.1 - OpenMP Leukocyte", 25, ptsProfile{Threads: 36, Burst: 8 * msec, Gap: 500 * sim.Microsecond, BurstCV: 0.3, Barrier: true, StartIdle: 10 * msec}},
	// zstd -T runs a persistent worker pool; workers grab very short
	// block jobs and block on the queue between them, so under
	// CFS-schedutil every worker sits on its own, mostly idle, cold core
	// ("spreads the tasks out over all of the cores... low frequency").
	{"zstd-compression-7", "Zstd 1.5.0 - Level 8, Long Mode - Compression Speed", 15, ptsProfile{Threads: 48, Burst: 450 * sim.Microsecond, Gap: 2500 * sim.Microsecond, BurstCV: 0.5, GapCV: 1.2, ScaleGap: true}},
	{"zstd-compression-10", "Zstd 1.5.0 - Level 3, Long Mode - Compression Speed", 12, ptsProfile{Threads: 64, Burst: 350 * sim.Microsecond, Gap: 2 * msec, BurstCV: 0.5, GapCV: 1.2, ScaleGap: true}},
}

// PhoronixNamed lists the Figure 13 test names in figure order.
func PhoronixNamed() []string {
	out := make([]string, len(phoronixNamed))
	for i, t := range phoronixNamed {
		out[i] = t.name
	}
	return out
}

// PhoronixDescription returns the Table 5 description of a named test.
func PhoronixDescription(name string) string {
	for _, t := range phoronixNamed {
		if t.name == name {
			return t.desc
		}
	}
	return ""
}

// backgroundCount is the number of synthetic tests registered beyond the
// 27 named ones, bringing the population to the paper's 222 (Table 4).
const backgroundCount = 195

// PhoronixAll returns the full 222-test population for Table 4.
func PhoronixAll() []string {
	out := make([]string, 0, len(phoronixNamed)+backgroundCount)
	for _, t := range phoronixNamed {
		out = append(out, "phoronix/"+t.name)
	}
	for i := 0; i < backgroundCount; i++ {
		out = append(out, fmt.Sprintf("phoronix/bg-%03d", i))
	}
	return out
}

// backgroundProfile deterministically synthesises the i-th unnamed test.
// The mix follows the suite's character: mostly saturating parallel tests
// that no scheduler can help, plus minorities of single-task, moderately
// parallel and short-task tests.
func backgroundProfile(i int) (ptsProfile, float64) {
	r := sim.NewRand(0xb9 + uint64(i))
	secs := 6 + 14*r.Float64()
	switch {
	case i%20 == 19: // 5%: short-task storms
		return ptsProfile{Storm: 8 + r.Intn(24), StormTask: sim.Duration(300+r.Intn(900)) * sim.Microsecond}, secs
	case i%5 == 4: // 20%: one or two tasks
		return ptsProfile{Threads: 1 + r.Intn(2), Burst: sim.Duration(10+r.Intn(40)) * msec, Gap: sim.Duration(1+r.Intn(3)) * msec, BurstCV: 0.4}, secs
	case i%5 == 3: // 20%: moderately parallel, blocking
		return ptsProfile{
			Threads: 8 + r.Intn(40),
			Burst:   sim.Duration(800+r.Intn(2500)) * sim.Microsecond,
			Gap:     sim.Duration(1+r.Intn(5)) * msec,
			BurstCV: 0.6, GapCV: 0.6 + r.Float64(),
			ScaleGap: r.Intn(2) == 0,
		}, secs
	default: // 55%: saturating parallel
		return ptsProfile{
			Threads: 0,
			Burst:   sim.Duration(5+r.Intn(20)) * msec,
			Gap:     sim.Duration(200+r.Intn(600)) * sim.Microsecond,
			BurstCV: 0.2 + 0.3*r.Float64(),
			Barrier: r.Intn(3) == 0,
		}, secs
	}
}

func init() {
	for _, t := range phoronixNamed {
		t := t
		register(&Workload{
			Name:         "phoronix/" + t.name,
			Suite:        "phoronix",
			PaperSeconds: t.secs,
			Install: func(m *cpu.Machine, scale float64) {
				p := t.prof
				if p.Threads == 0 && p.Storm == 0 {
					p.Threads = m.Topo().NumCores()
				}
				p.install(m, scale, t.secs)
			},
		})
	}
	for i := 0; i < backgroundCount; i++ {
		i := i
		prof, secs := backgroundProfile(i)
		register(&Workload{
			Name:         fmt.Sprintf("phoronix/bg-%03d", i),
			Suite:        "phoronix-bg",
			PaperSeconds: secs,
			Install: func(m *cpu.Machine, scale float64) {
				p := prof
				if p.Threads == 0 && p.Storm == 0 {
					p.Threads = m.Topo().NumCores()
				}
				p.install(m, scale, secs)
			},
		})
	}
}
