// Admission control — what keeps the serving path responsive under
// sustained mixed cold/warm traffic.
//
// Cold fits are orders of magnitude more expensive than warm hits (~ms of
// CPU vs ~µs), and without a bound a burst of distinct cold requests
// queues unbounded work behind the fit pool, growing cold-path latency
// without limit and starving warm traffic of CPU. An admission gate bounds
// how many cold fits may be outstanding (running + queued); past the
// bound, the miss is shed immediately with 503 + Retry-After instead of
// joining a queue it would time out in anyway. Warm hits never touch the
// gate. A second, optional gate bounds total in-flight HTTP requests
// (429 + Retry-After) for operators who want a hard concurrency ceiling.
package service

import "sync/atomic"

// shedRetryAfterSeconds is the Retry-After hint on every shed (429/503)
// and drain response: long enough that a client does not hammer, short
// enough that a fit-queue slot has usually freed by then.
const shedRetryAfterSeconds = 1

// gate is a try-acquire counting semaphore with shed accounting. A nil
// slots channel means unlimited (the gate always admits).
type gate struct {
	slots chan struct{}
	shed  atomic.Int64
}

// newGate returns a gate admitting at most depth holders; depth <= 0
// means unlimited.
func newGate(depth int) *gate {
	g := &gate{}
	if depth > 0 {
		g.slots = make(chan struct{}, depth)
	}
	return g
}

// tryAcquire admits the caller or records a shed and returns false.
// It never blocks: shedding at the door is the point.
func (g *gate) tryAcquire() bool {
	if g.slots == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		g.shed.Add(1)
		return false
	}
}

func (g *gate) release() {
	if g.slots != nil {
		<-g.slots
	}
}

// held reports how many slots are currently acquired (the fit-queue
// depth /stats exposes).
func (g *gate) held() int64 {
	if g.slots == nil {
		return 0
	}
	return int64(len(g.slots))
}

// capacity reports the configured bound; 0 means unlimited.
func (g *gate) capacity() int {
	if g.slots == nil {
		return 0
	}
	return cap(g.slots)
}
