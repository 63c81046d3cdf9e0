// Package machine models multicore server topology: sockets, dies,
// physical cores and hyperthreads, together with the Linux-style
// scheduling-domain hierarchy the CFS and Nest policies navigate.
//
// Terminology follows the paper: a "core" is a hardware thread; two cores
// sharing a physical core are hyperthreads of one another; cores sharing
// a last-level cache are "on the same die". On all the paper's machines a
// die coincides with a socket.
package machine

import "fmt"

// DomainLevel identifies a level of the scheduling-domain hierarchy, from
// the narrowest (SMT) to the widest (NUMA).
type DomainLevel int

const (
	// SMT groups the hardware threads of one physical core.
	SMT DomainLevel = iota
	// DIE groups the cores sharing a last-level cache (a socket here).
	DIE
	// NUMA groups all cores of the machine.
	NUMA
)

// String returns the conventional Linux name of the level.
func (l DomainLevel) String() string {
	switch l {
	case SMT:
		return "SMT"
	case DIE:
		return "DIE"
	case NUMA:
		return "NUMA"
	}
	return fmt.Sprintf("DomainLevel(%d)", int(l))
}

// CoreID numbers hardware threads 0..NumCores-1. Numbering follows the
// common Linux enumeration on Intel servers: core i and core
// i+NumPhysical are hyperthreads of the same physical core, and physical
// cores are laid out socket-major so that a socket's first hardware
// threads are contiguous.
type CoreID int

// Core describes one hardware thread's position in the topology.
type Core struct {
	ID       CoreID
	Socket   int    // socket (== die) index
	Physical int    // physical core index within the machine
	Sibling  CoreID // the other hardware thread of the same physical core (== ID when SMT is off)
}

// Topology is an immutable description of a machine's CPU layout.
type Topology struct {
	name        string
	sockets     int
	physPerSock int
	smt         int // hardware threads per physical core (1 or 2)
	cores       []Core
	bySocket    [][]CoreID // cores of each socket, in numerical order
	// Precomputed scan orders. The topology is immutable, so both the
	// wrap-around core scans and the die-local-first socket orders can be
	// built once and shared: SocketOrder and ScanFrom sit on every
	// placement path of both policies and used to allocate a fresh slice
	// per call.
	ringBySocket [][]CoreID // each socket's core list doubled, for wrap-around subslices
	posInSocket  []int      // index of each core within its socket's list
	socketOrders [][]int    // die-local-first socket order, by home socket
}

// New constructs a topology with the given socket count, physical cores
// per socket, and SMT width (1 or 2). It panics on invalid dimensions;
// callers handling external input (CLI flags) should use NewChecked and
// report the error instead.
func New(name string, sockets, physPerSocket, smt int) *Topology {
	t, err := NewChecked(name, sockets, physPerSocket, smt)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// NewChecked is New returning an error instead of panicking, for
// validating untrusted topology descriptions at a program boundary.
func NewChecked(name string, sockets, physPerSocket, smt int) (*Topology, error) {
	if sockets <= 0 || physPerSocket <= 0 || smt < 1 || smt > 2 {
		return nil, fmt.Errorf("machine: invalid topology %d sockets × %d cores × SMT%d", sockets, physPerSocket, smt)
	}
	t := &Topology{
		name:        name,
		sockets:     sockets,
		physPerSock: physPerSocket,
		smt:         smt,
	}
	nPhys := sockets * physPerSocket
	n := nPhys * smt
	t.cores = make([]Core, n)
	t.bySocket = make([][]CoreID, sockets)
	for id := 0; id < n; id++ {
		phys := id % nPhys
		sock := phys / physPerSocket
		sib := id
		if smt == 2 {
			if id < nPhys {
				sib = id + nPhys
			} else {
				sib = id - nPhys
			}
		}
		t.cores[id] = Core{
			ID:       CoreID(id),
			Socket:   sock,
			Physical: phys,
			Sibling:  CoreID(sib),
		}
		t.bySocket[sock] = append(t.bySocket[sock], CoreID(id))
	}
	t.ringBySocket = make([][]CoreID, sockets)
	t.posInSocket = make([]int, n)
	for s := 0; s < sockets; s++ {
		cores := t.bySocket[s]
		ring := make([]CoreID, 0, 2*len(cores))
		ring = append(ring, cores...)
		ring = append(ring, cores...)
		t.ringBySocket[s] = ring
		for i, c := range cores {
			t.posInSocket[c] = i
		}
	}
	t.socketOrders = make([][]int, sockets)
	for home := 0; home < sockets; home++ {
		order := make([]int, 0, sockets)
		order = append(order, home)
		for s := 0; s < sockets; s++ {
			if s != home {
				order = append(order, s)
			}
		}
		t.socketOrders[home] = order
	}
	return t, nil
}

// Name returns the model name of the machine.
func (t *Topology) Name() string { return t.name }

// NumCores returns the number of hardware threads.
func (t *Topology) NumCores() int { return len(t.cores) }

// NumPhysical returns the number of physical cores.
func (t *Topology) NumPhysical() int { return t.sockets * t.physPerSock }

// NumSockets returns the number of sockets (== dies).
func (t *Topology) NumSockets() int { return t.sockets }

// PhysPerSocket returns physical cores per socket.
func (t *Topology) PhysPerSocket() int { return t.physPerSock }

// SMT returns the number of hardware threads per physical core.
func (t *Topology) SMT() int { return t.smt }

// Core returns the descriptor for id.
func (t *Topology) Core(id CoreID) Core { return t.cores[id] }

// Socket returns the socket index of core id.
func (t *Topology) Socket(id CoreID) int { return t.cores[id].Socket }

// Sibling returns the hyperthread sibling of id (id itself without SMT).
func (t *Topology) Sibling(id CoreID) CoreID { return t.cores[id].Sibling }

// SocketCores returns the cores of socket s in numerical order. The
// returned slice is shared; callers must not modify it.
func (t *Topology) SocketCores(s int) []CoreID { return t.bySocket[s] }

// PosInSocket returns the index of core id in SocketCores of its socket.
func (t *Topology) PosInSocket(id CoreID) int { return t.posInSocket[id] }

// SameDie reports whether two cores share a last-level cache.
func (t *Topology) SameDie(a, b CoreID) bool {
	return t.cores[a].Socket == t.cores[b].Socket
}

// SocketOrder returns the socket indices to visit when scanning outward
// from the socket of core id: that socket first, then the rest in
// ascending order. This is the die-local-first order both CFS's fork path
// and Nest's searches use. The returned slice is shared and precomputed;
// callers must not modify it.
func (t *Topology) SocketOrder(from CoreID) []int {
	return t.socketOrders[t.cores[from].Socket]
}

// ScanFrom returns all cores of socket s starting at core `from` (if it
// belongs to s, else at the socket's first core) and wrapping around, in
// numerical order modulo the socket size. This mirrors the kernel's
// wrap-around scans that start at the core performing the operation.
// The returned slice is a shared view into a precomputed doubled ring;
// callers must not modify it.
func (t *Topology) ScanFrom(s int, from CoreID) []CoreID {
	start := 0
	if t.cores[from].Socket == s {
		start = t.posInSocket[from]
	}
	n := len(t.bySocket[s])
	return t.ringBySocket[s][start : start+n]
}

// String summarises the topology, e.g. "4x16x2 = 128".
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %dx%dx%d = %d", t.name, t.sockets, t.physPerSock, t.smt, t.NumCores())
}
