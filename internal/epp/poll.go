package epp

import (
	"fmt"
	"sync"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// Message is one entry in a registrar's poll queue: the registry's offline
// notification channel (EPP <poll>, RFC 5730 §2.9.2.3). The registry uses it
// to tell sponsors about lifecycle transitions and Drop deletions of their
// domains.
type Message struct {
	ID   uint64    `json:"id"`
	Time time.Time `json:"time"`
	Text string    `json:"text"`
}

// PollQueue holds per-registrar message queues and implements
// registry.Observer. Safe for concurrent use.
type PollQueue struct {
	clock simtime.Clock

	mu     sync.Mutex
	nextID uint64
	queues map[int][]Message
	// cap bounds each registrar's queue; the oldest messages are dropped
	// beyond it, like real registries expire unacknowledged messages.
	cap int
}

// NewPollQueue returns a queue bounded at capPerRegistrar messages each
// (0 means 1024).
func NewPollQueue(clock simtime.Clock, capPerRegistrar int) *PollQueue {
	if capPerRegistrar <= 0 {
		capPerRegistrar = 1024
	}
	return &PollQueue{clock: clock, nextID: 1, queues: make(map[int][]Message), cap: capPerRegistrar}
}

// Enqueue appends a message for one registrar.
func (p *PollQueue) Enqueue(registrarID int, text string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := append(p.queues[registrarID], Message{
		ID:   p.nextID,
		Time: simtime.Trunc(p.clock.Now()),
		Text: text,
	})
	p.nextID++
	if len(q) > p.cap {
		q = q[len(q)-p.cap:]
	}
	p.queues[registrarID] = q
}

// Peek returns the oldest message and the queue length; ok=false on empty.
func (p *PollQueue) Peek(registrarID int) (msg Message, count int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.queues[registrarID]
	if len(q) == 0 {
		return Message{}, 0, false
	}
	return q[0], len(q), true
}

// Ack removes the message with the given ID if it is the oldest; EPP
// acknowledges strictly in order.
func (p *PollQueue) Ack(registrarID int, id uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.queues[registrarID]
	if len(q) == 0 {
		return fmt.Errorf("epp: poll queue empty")
	}
	if q[0].ID != id {
		return fmt.Errorf("epp: message %d is not at the head of the queue", id)
	}
	p.queues[registrarID] = q[1:]
	return nil
}

// Len returns one registrar's queue length.
func (p *PollQueue) Len(registrarID int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queues[registrarID])
}

// DomainPurged implements registry.Observer: the sponsor is told its
// domain was deleted during the Drop.
func (p *PollQueue) DomainPurged(ev model.DeletionEvent, registrarID int) {
	p.Enqueue(registrarID, fmt.Sprintf("domain %s deleted (drop rank %d)", ev.Name(), ev.Rank()))
}

// DomainTransitioned implements registry.Observer: sponsors hear about
// lifecycle changes of their domains.
func (p *PollQueue) DomainTransitioned(name string, registrarID int, from, to model.Status) {
	p.Enqueue(registrarID, fmt.Sprintf("domain %s: %s -> %s", name, from, to))
}

// DomainTransferred implements registry.Observer: the losing sponsor learns
// its domain moved away.
func (p *PollQueue) DomainTransferred(name string, losingID, gainingID int) {
	p.Enqueue(losingID, fmt.Sprintf("domain %s transferred to registrar %d", name, gainingID))
}
