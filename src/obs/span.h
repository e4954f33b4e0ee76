// Causal latency spans for the record pipeline and handshake.
//
// A SpanRecord is a closed interval on the sim clock attributed to one
// pipeline stage of one traced record (or handshake phase): crypto stages on
// the sending endpoint, queue wait and transmission per TCP hop, middlebox
// reseal, and decrypt/verify + delivery at the receiving endpoint. Records
// belonging to the same application record share a trace id and form a tree
// through parent span ids, so an exporter can reconstruct the full
// client→middlebox→…→server time budget of every byte.
//
// Two clocks, deliberately:
//   - start_ts/end_ts are sim-loop microseconds. Crypto executes in zero sim
//     time, so per-record sim spans (queue_wait + transmit per hop) telescope
//     exactly to the observed end-to-end latency — the attribution "sums to
//     100%" by construction.
//   - cpu_ns carries the measured wall cost (steady_clock) of crypto stages
//     (MAC, encrypt, decrypt, reseal). It answers "where would real CPU time
//     go", independent of the sim timeline.
//
// Emission follows the TraceEvent idiom: fixed-size POD stamped on the stack
// into a preallocated ring, so instrumenting the zero-copy fast path adds no
// heap allocations. The span_on() switch at the bottom compiles emission out
// under -DMCT_OBS=OFF.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mct::obs {

enum class Stage : uint8_t {
    // Per-record pipeline stages (append-only: exporters key on ordinals).
    record,          // root span: one traced application record end-to-end
    encode,          // record header framing on the sending endpoint
    mac,             // MAC computation (a = number of MACs: 3 for mcTLS)
    encrypt,         // CBC encryption of payload + MAC block
    queue_wait,      // send() enqueue → first byte serialized onto the link
    transmit,        // first byte on the wire → last byte delivered in order
    reseal,          // middlebox writer-path re-MAC + re-encrypt
    forward,         // middlebox blind/read forward (original wire bytes)
    decrypt_verify,  // receiving hop decrypt + MAC verification
    deliver,         // plaintext handed to the application
    handshake,       // one handshake phase (a = EventType ordinal)
};

const char* to_string(Stage s);

// Propagated in-band alongside a record: identifies the trace and the span
// the next hop should parent its own spans under. trace_id 0 = untraced.
struct SpanContext {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;

    bool valid() const { return trace_id != 0; }
};

struct SpanRecord {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;  // 0 = root of its trace
    uint64_t start_ts = 0;   // sim clock, µs
    uint64_t end_ts = 0;     // sim clock, µs (>= start_ts)
    uint64_t cpu_ns = 0;     // measured CPU cost; 0 = not a CPU stage
    uint64_t seq = 0;        // global emission order (same-tick tie-break)
    uint64_t a = 0;          // stage-dependent payload (bytes, MAC count, …)
    uint16_t actor = 0;      // interned actor name
    uint16_t ctx = 0;        // encryption context id where applicable
    Stage stage = Stage::record;
};

// Fixed-capacity collector: preallocates its ring at construction and never
// allocates on emit(). Ids are plain counters — the sim is single-threaded
// and deterministic, so traces are reproducible run to run.
class SpanCollector {
public:
    explicit SpanCollector(size_t capacity = 16384);

    // Actor interning, separate table from Tracer (0 reserved for "?").
    uint16_t intern(std::string_view name);
    const std::string& actor_name(uint16_t id) const;

    // Optional monotonic sim clock (never a wall clock).
    void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }
    uint64_t now() const { return clock_ ? clock_() : 0; }

    // Fresh ids. trace ids and span ids draw from independent counters so a
    // span id never collides with a trace id in exporter maps.
    SpanContext begin_trace()
    {
        SpanContext c;
        c.trace_id = ++next_trace_id_;
        c.span_id = ++next_span_id_;
        return c;
    }
    uint64_t next_span_id() { return ++next_span_id_; }

    // Stamp seq and store. Allocation-free.
    void emit(SpanRecord r)
    {
        r.seq = next_seq_++;
        buffer_[r.seq % capacity_] = r;
    }

    uint64_t spans_emitted() const { return next_seq_; }
    uint64_t dropped() const { return next_seq_ > capacity_ ? next_seq_ - capacity_ : 0; }

    // Retained spans in emission order (oldest first).
    std::vector<SpanRecord> ordered() const;

private:
    size_t capacity_;
    std::vector<SpanRecord> buffer_;
    std::vector<std::string> actors_{"?"};
    std::function<uint64_t()> clock_;
    uint64_t next_seq_ = 0;
    uint64_t next_trace_id_ = 0;
    uint64_t next_span_id_ = 0;
};

// Null-checked switch for instrumented code (sessions test it through
// obs::SessionProbe); constant false under -DMCT_OBS=OFF, so every span
// emission site compiles out.
#if defined(MCT_OBS_ENABLED)
inline bool span_on(const SpanCollector* c) { return c != nullptr; }
#else
inline bool span_on(const SpanCollector*) { return false; }
#endif

}  // namespace mct::obs
