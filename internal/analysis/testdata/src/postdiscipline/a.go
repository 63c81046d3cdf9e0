// Fixture for the postdiscipline analyzer: engine-callback and
// goroutine discipline in sim packages.
package fixture

import (
	"sync"

	"repro/internal/sim"
)

func use(int) {}

// Captures of non-loop state: clean.
func goodPlainCapture(eng *sim.Engine, d sim.Duration, n int) {
	eng.PostAfter(d, func() { use(n) })
}

func badGo() {
	go func() {}() // want `goroutine started in a deterministic sim package`
}

func suppressedGo() {
	//lint:goroutine fixture: documented host-side helper
	go func() {}()
}

func badBlockingRecv(eng *sim.Engine, ch chan int) {
	eng.Post(0, func() { <-ch }) // want `receives from a channel`
}

func badBlockingSend(eng *sim.Engine, ch chan int) {
	eng.Post(0, func() { ch <- 1 }) // want `sends on a channel`
}

func badLock(eng *sim.Engine, mu *sync.Mutex) {
	eng.Post(0, func() { mu.Lock() }) // want `sync\.Mutex\.Lock`
}
