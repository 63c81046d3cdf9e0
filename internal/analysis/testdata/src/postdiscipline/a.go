// Fixture for the postdiscipline analyzer: event-callback and
// goroutine discipline in sim packages.
package fixture

import (
	"sync"

	"repro/internal/sim"
)

func use(int) {}

// A callback that only touches sim state: clean.
type clean struct{ n int }

func (c *clean) RunAt(now sim.Time) { use(c.n) }

func badGo() {
	go func() {}() // want `goroutine started in a deterministic sim package`
}

func suppressedGo() {
	//lint:goroutine fixture: documented host-side helper
	go func() {}()
}

type recv struct{ ch chan int }

func (r *recv) RunAt(now sim.Time) {
	<-r.ch // want `receives from a channel`
}

type send struct{ ch chan int }

func (s *send) RunAt(now sim.Time) {
	s.ch <- 1 // want `sends on a channel`
}

type sel struct{ ch chan int }

func (s *sel) RunAt(now sim.Time) {
	select { // want `uses select`
	case s.ch <- 1: // want `sends on a channel`
	default:
	}
}

type locker struct{ mu *sync.Mutex }

func (l *locker) RunAt(now sim.Time) {
	l.mu.Lock() // want `sync\.Mutex\.Lock`
}

// Blocking outside a RunAt body is not a callback's: not flagged here.
func notACallback(ch chan int) {
	<-ch
}

// The callback still reaches the engine as a Runner.
func post(eng *sim.Engine, c *clean) {
	eng.PostRun(0, c)
}
