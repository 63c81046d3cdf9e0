package cpu

import (
	"repro/internal/proc"
)

// InjectSend delivers one message to ch from "interrupt context": no
// task issues the send and nothing ever blocks on it — the model of a
// NIC receive path handing a request to a server's accept queue. If a
// receiver is blocked it is woken through the normal placement path
// (the wakeup originates from the boot core, like a timer expiry whose
// task never ran); otherwise the message queues. It returns false — and
// delivers nothing — when the channel is full, unless force is set
// (workload drivers use force for shutdown sentinels that must not be
// lost to a saturated queue).
//
// Open-loop workload drivers call this from engine callbacks so arrival
// streams stay independent of scheduling decisions; a blocking
// proc.Send would turn the source closed-loop.
func (m *Machine) InjectSend(ch *proc.Chan, force bool) bool {
	if ch.Receivers.Len() > 0 {
		m.wakeBlocked(ch.Receivers.Pop(), nil, m.bootCore, false)
		return true
	}
	if ch.Queued >= ch.Capacity && !force {
		return false
	}
	ch.Queued++
	if ch.Queued > ch.HighWater {
		ch.HighWater = ch.Queued
	}
	return true
}
