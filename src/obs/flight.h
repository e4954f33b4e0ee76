// Flight-recorder forensics plane (DESIGN.md §17): per-session black-box
// rings of compact protocol events, cheap enough to leave always-on at
// million-session scale.
//
// The Tracer (obs/trace.h) answers "what happened in this run" with one
// global ring shared by every actor; under 10k concurrent sessions the
// interesting prefix of a single dying session is overwritten long before
// anyone looks. A FlightRing is the per-session complement: a fixed-size
// ring holding only that session's last `ring_capacity` events (handshake
// state transitions, alerts, rekey phases, resumption outcomes, cache
// decisions, the span ids of its last records), so any one session's death
// can be explained after the fact from its own black box.
//
// Cost model, in the record fast path's terms (DESIGN.md "Zero-copy record
// data plane"): all ring storage is one slab preallocated at recorder
// construction; push() stamps a POD into the slab — no allocation, no
// hashing, no branching beyond the null check. Opening a ring (per session,
// not per record) does the bookkeeping. With -DMCT_OBS=OFF the null-checked
// helpers below compile to nothing, like trace_at().
//
// Ring lifecycle: open(sid, label) is idempotent per live (sid, label) pair
// — a retrying session keeps appending to the same black box. close()
// retires the ring but keeps its contents until the slot is recycled for a
// new session (LRU over closed slots), so a crash shortly after completion
// is still explainable. When every slot is live, open() refuses (counted in
// rings_denied()) rather than evicting a live session's history.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace mct::obs {

class FlightRecorder;

class FlightRing {
public:
    // Allocation-free: stamps into the recorder's slab. Safe only while the
    // owning recorder is alive (sessions borrow the pointer, as with Tracer).
    void push(EventType type, uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0,
              uint64_t span = 0);

    uint64_t sid() const { return sid_; }
    const std::string& label() const { return label_; }
    uint64_t total() const { return next_; }
    uint64_t dropped() const { return next_ > capacity_ ? next_ - capacity_ : 0; }

    // Retained events, oldest first. `seq` is recorder-global (it
    // interleaves rings causally); `actor` stays 0, as the ring is the
    // actor; `span` ties a record event to its latency tree.
    std::vector<TraceEvent> events() const;

private:
    friend class FlightRecorder;
    FlightRecorder* owner_ = nullptr;
    TraceEvent* slab_ = nullptr;  // capacity_ entries inside the recorder slab
    size_t capacity_ = 0;
    uint64_t next_ = 0;
    uint64_t sid_ = 0;
    std::string label_;
    bool open_ = false;
    uint64_t closed_at_ = 0;  // recycle order among closed slots
};

class FlightRecorder {
public:
    struct Config {
        size_t ring_capacity = 128;  // events retained per ring
        size_t max_rings = 1024;     // slots preallocated up front
    };

    FlightRecorder() : FlightRecorder(Config{}) {}
    explicit FlightRecorder(Config cfg);

    // Optional monotonic sim clock (never a wall clock), same contract as
    // Tracer::set_clock.
    void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }

    // Get-or-create the ring for (sid, label). Returns the existing ring
    // while one is open for the pair; otherwise takes a fresh slot, then the
    // oldest *closed* slot (its history is gone — counted in
    // rings_recycled()), and returns nullptr only when every slot holds a
    // live session (counted in rings_denied()).
    FlightRing* open(uint64_t sid, std::string_view label);

    // Retire a ring: it stops being returned by open() for its pair, but its
    // contents stay snapshotable until the slot is recycled. Null-safe.
    void close(FlightRing* ring);

    uint64_t events_recorded() const { return next_seq_; }
    // Overwritten events across every ring, including rings already recycled.
    uint64_t events_dropped() const;
    uint64_t rings_opened() const { return rings_opened_; }
    uint64_t rings_denied() const { return rings_denied_; }
    uint64_t rings_recycled() const { return rings_recycled_; }

    size_t ring_capacity() const { return cfg_.ring_capacity; }

    // Snapshot of retained rings (open and closed-but-not-recycled), sorted
    // by (sid, label). `sids` filters; empty = every retained ring.
    struct Snapshot {
        uint64_t sid = 0;
        std::string label;
        uint64_t total = 0;
        uint64_t dropped = 0;
        std::vector<TraceEvent> events;
    };
    std::vector<Snapshot> snapshot(const std::vector<uint64_t>& sids = {}) const;

private:
    friend class FlightRing;

    Config cfg_;
    std::vector<TraceEvent> slab_;   // max_rings * ring_capacity, fixed
    std::vector<FlightRing> rings_;   // slot metadata, fixed size
    std::map<std::pair<uint64_t, std::string>, size_t> live_;  // open rings
    std::vector<size_t> fresh_;       // never-used slot indices
    std::function<uint64_t()> clock_;
    uint64_t next_seq_ = 0;
    uint64_t close_counter_ = 0;
    uint64_t rings_opened_ = 0;
    uint64_t rings_denied_ = 0;
    uint64_t rings_recycled_ = 0;
    uint64_t dropped_recycled_ = 0;   // drops carried from recycled rings
};

// Null-checked two-sink emission helpers: feed the shared Tracer and a
// session's black box in one call (obs::SessionProbe::emit() goes through
// trace(); the testbed's harness events use trace_at()). Both compile out
// under -DMCT_OBS=OFF.
#if defined(MCT_OBS_ENABLED)
inline void trace(Tracer* t, FlightRing* f, uint16_t actor, EventType type,
                  uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0, uint64_t span = 0)
{
    if (t) t->emit(actor, type, ctx, a, b, span);
    if (f) f->push(type, ctx, a, b, span);
}
inline void trace_at(Tracer* t, FlightRing* f, uint64_t ts, uint16_t actor,
                     EventType type, uint16_t ctx = 0, uint64_t a = 0, uint64_t b = 0,
                     uint64_t span = 0)
{
    if (t) t->emit_at(ts, actor, type, ctx, a, b, span);
    if (f) f->push(type, ctx, a, b, span);
}
#else
inline void trace(Tracer*, FlightRing*, uint16_t, EventType, uint16_t = 0, uint64_t = 0,
                  uint64_t = 0, uint64_t = 0)
{
}
inline void trace_at(Tracer*, FlightRing*, uint64_t, uint16_t, EventType, uint16_t = 0,
                     uint64_t = 0, uint64_t = 0, uint64_t = 0)
{
}
#endif

}  // namespace mct::obs
