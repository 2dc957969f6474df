// Package dash is the live observability layer: it mounts HTTP handlers
// on the profiler's mux that stream what a running simulation or sweep is
// doing — live metrics, per-quantum records and slowdown estimates over
// Server-Sent Events, the latest interference attribution matrix, sweep
// progress, and a single embedded HTML page that renders all of it with
// no external assets.
//
// The package never imports the simulator: a run reaches the dashboard
// through its telemetry.Options — the Server is one of the run's
// Recorders and its ObserveAttribution the run's Attribution — so the
// dashboard can observe any run without the simulator knowing it exists.
// Everything is nil-safe, and the broadcaster never blocks a producer: a
// slow or absent SSE client costs the simulation nothing beyond one JSON
// marshal per record while at least one client is connected, and nothing
// at all otherwise.
package dash

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"asmsim/internal/telemetry"
)

// subBuffer is each SSE subscriber's frame buffer. At one frame per
// (app, quantum) this holds a few hundred quanta of backlog; a client
// that falls further behind loses oldest frames first, never the
// producer's time.
const subBuffer = 256

// subscriber is one connected SSE client's frame queue.
type subscriber struct {
	ch chan []byte
}

// Broadcaster fans QuantumRecords out to any number of SSE subscribers
// as pre-rendered `event: quantum` frames. It implements
// telemetry.Recorder so it can ride the same fan-out (telemetry.Fanout)
// as the disk recorder. Record never blocks: each subscriber has a
// bounded buffer and the oldest frame is dropped when it fills
// (drop-oldest, so a reconnecting client sees the freshest state). With
// zero subscribers Record returns after one atomic load, allocating
// nothing.
type Broadcaster struct {
	nsubs  atomic.Int64  // fast-path gate: subscriber count
	frames atomic.Uint64 // frames fanned out (to >=1 subscriber)
	drops  atomic.Uint64 // frames or backlog entries discarded

	// dropCtr optionally mirrors drops into a registry counter so
	// evictions show up on /metrics instead of only in Stats(); see
	// SetDropCounter.
	dropCtr atomic.Pointer[telemetry.Counter]

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

// SetDropCounter mirrors every dropped frame (drop-oldest evictions and
// whole-frame drops) into c, typically "dash.sse.dropped_frames" or
// "serve.sse.dropped_frames", so silent backpressure becomes a
// scrapeable series. Nil-safe on both sides.
func (b *Broadcaster) SetDropCounter(c *telemetry.Counter) {
	if b == nil || c == nil {
		return
	}
	b.dropCtr.Store(c)
}

// drop counts one discarded frame or backlog entry.
func (b *Broadcaster) drop() {
	b.drops.Add(1)
	b.dropCtr.Load().Inc()
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: map[*subscriber]struct{}{}}
}

// Record implements telemetry.Recorder: it renders rec as one
// `event: quantum` SSE frame and enqueues it to every subscriber.
// Nil-safe; free when nobody is listening.
func (b *Broadcaster) Record(rec *telemetry.QuantumRecord) {
	b.Publish("quantum", rec)
}

// Publish renders payload as one complete SSE frame under the given
// event type and fans it out to every subscriber — the generic form of
// Record, used by the job service to stream lifecycle events next to
// quantum records. The whole frame is a single buffer handed to each
// subscriber channel, so a consumer either sees a frame in full or not
// at all (drop-oldest never truncates). Nil-safe; with zero subscribers
// it returns after one atomic load, allocating nothing.
func (b *Broadcaster) Publish(event string, payload any) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	j, err := json.Marshal(payload)
	if err != nil {
		return
	}
	frame := make([]byte, 0, len(j)+len(event)+16)
	frame = append(frame, "event: "...)
	frame = append(frame, event...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, j...)
	frame = append(frame, '\n', '\n')
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || len(b.subs) == 0 {
		return
	}
	for sub := range b.subs {
		b.push(sub, frame)
	}
	b.frames.Add(1)
}

// push enqueues frame without ever blocking: try, evict one oldest entry
// and retry, else drop the frame. Callers hold b.mu (which also
// serializes pushes against Close, so a send can never race the channel
// closing).
func (b *Broadcaster) push(sub *subscriber, frame []byte) {
	select {
	case sub.ch <- frame:
		return
	default:
	}
	select {
	case <-sub.ch:
		b.drop()
	default:
	}
	select {
	case sub.ch <- frame:
	default:
		b.drop()
	}
}

// Subscribe registers a new SSE client and returns its frame channel
// plus an unsubscribe func (idempotent). On a nil or closed broadcaster
// the returned channel is already closed.
func (b *Broadcaster) Subscribe() (<-chan []byte, func()) {
	if b == nil {
		ch := make(chan []byte)
		close(ch)
		return ch, func() {}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		ch := make(chan []byte)
		close(ch)
		return ch, func() {}
	}
	sub := &subscriber{ch: make(chan []byte, subBuffer)}
	b.subs[sub] = struct{}{}
	b.nsubs.Store(int64(len(b.subs)))
	var once sync.Once
	return sub.ch, func() {
		once.Do(func() {
			b.mu.Lock()
			defer b.mu.Unlock()
			if _, ok := b.subs[sub]; ok {
				delete(b.subs, sub)
				b.nsubs.Store(int64(len(b.subs)))
				close(sub.ch)
			}
		})
	}
}

// ServeHTTP streams the broadcast to one client as Server-Sent Events
// (the dashboard's /debug/asm/quanta, the job service's /api/events).
// Frames arrive as complete buffers, so the client sees whole frames or
// nothing; the stream ends when the client disconnects or the
// broadcaster closes.
func (b *Broadcaster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := b.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	// Tell the client we are live before the first frame lands.
	w.Write([]byte("retry: 1000\n: stream open\n\n"))
	flusher.Flush()
	for {
		select {
		case frame, open := <-ch:
			if !open {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// BroadcastStats is a point-in-time view of the fan-out's health.
type BroadcastStats struct {
	Subscribers int    `json:"subscribers"`
	Frames      uint64 `json:"frames"`
	Drops       uint64 `json:"drops"`
}

// Stats snapshots the broadcaster (zero on nil).
func (b *Broadcaster) Stats() BroadcastStats {
	if b == nil {
		return BroadcastStats{}
	}
	return BroadcastStats{
		Subscribers: int(b.nsubs.Load()),
		Frames:      b.frames.Load(),
		Drops:       b.drops.Load(),
	}
}

// Close implements telemetry.Recorder: it closes every subscriber's
// channel (their SSE handlers drain and exit) and rejects future
// subscriptions. Safe to call more than once and on nil.
func (b *Broadcaster) Close() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for sub := range b.subs {
		close(sub.ch)
	}
	b.subs = nil
	b.nsubs.Store(0)
	return nil
}
