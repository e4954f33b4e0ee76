// Whole-chain mcTLS benchmark.
//
// One process runs a client -> middlebox(es) -> server chain over in-memory
// byte hand-off (no simulator, no sockets). One thread drives every party
// as a closed loop with one operation in flight. Each layer is measured
// from outside: the benchmark times its own calls into the public functions
// of mctls::Session, mctls::MiddleboxSession and crypto::*, and reads the
// counters those modules already expose.
//
//   mctls_chain_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <file.json>] [--corrupt-every <n>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs an untraced
// half and a traced half (spans, tracer ring and flight rings attached) and
// reports the per-layer metrics. A human-readable table goes to stdout; the
// last stdout line is one JSON object. Any failed correctness check makes
// the exit code 1. --corrupt-every n flips one byte of every n-th delivered
// payload before the oracle sees it (used by the benchmark's own tests).
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/ops.h"
#include "crypto/prf.h"
#include "crypto/x25519.h"
#include "mctls/middlebox.h"
#include "mctls/resumption.h"
#include "mctls/session.h"
#include "obs/flight.h"
#include "obs/perfetto.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "pki/authority.h"
#include "pki/trust_store.h"
#include "util/rng.h"

// ---------------------------------------------------------------------------
// Heap accounting: every allocation made while a timed party call runs.
// The replacements below pair malloc with free; GCC cannot see that once
// they are inlined into callers and warns about a mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
bool g_heap_on = false;
uint64_t g_heap_allocs = 0;
uint64_t g_heap_bytes = 0;

void* counted_alloc(std::size_t n) noexcept
{
    if (g_heap_on) {
        ++g_heap_allocs;
        g_heap_bytes += n;
    }
    return std::malloc(n ? n : 1);
}
}  // namespace

void* operator new(std::size_t n)
{
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n)
{
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mct;
using mctls::Permission;

// ---------------------------------------------------------------------------
// Clock, histogram, small statistics.

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

uint64_t now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count());
}

// a / b, or 0 when there is nothing to divide by.
double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Log-linear latency histogram: exact below 1024 ns, then 512 buckets per
// octave (0.2% resolution). Fixed size, so recording never allocates and
// memory does not grow with run length.
class Histogram {
public:
    static constexpr int kSub = 10;
    static constexpr size_t kBuckets = (size_t{1} << kSub) + 54 * (size_t{1} << (kSub - 1));

    Histogram() : counts_(kBuckets, 0) {}

    void add(uint64_t v)
    {
        counts_[index(v)]++;
        n_++;
    }
    uint64_t count() const { return n_; }

    // Value at quantile q (0..1), as the midpoint of its bucket.
    double quantile(double q) const
    {
        if (n_ == 0) return 0;
        uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n_)));
        rank = std::clamp<uint64_t>(rank, 1, n_);
        uint64_t seen = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank) return midpoint(i);
        }
        return midpoint(kBuckets - 1);
    }

private:
    static size_t index(uint64_t v)
    {
        if (v < (uint64_t{1} << kSub)) return static_cast<size_t>(v);
        int msb = 63 - __builtin_clzll(v);
        int shift = msb - kSub + 1;
        uint64_t top = v >> shift;  // in [2^(kSub-1), 2^kSub)
        size_t half = size_t{1} << (kSub - 1);
        size_t i = (size_t{1} << kSub) + static_cast<size_t>(shift - 1) * half +
                   static_cast<size_t>(top - half);
        return std::min(i, kBuckets - 1);
    }
    static double midpoint(size_t i)
    {
        if (i < (size_t{1} << kSub)) return static_cast<double>(i);
        size_t rel = i - (size_t{1} << kSub);
        int shift = static_cast<int>(rel / (size_t{1} << (kSub - 1))) + 1;
        uint64_t top = (rel % (size_t{1} << (kSub - 1))) + (uint64_t{1} << (kSub - 1));
        return static_cast<double>(top << shift) + static_cast<double>(uint64_t{1} << shift) / 2;
    }

    std::vector<uint32_t> counts_;
    uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Parties, observers, timed calls.

enum PartyIndex : int { kClient = 0, kMbox0 = 1, kMbox1 = 2, kServer = 3, kParties = 4 };
const char* const kPartyNames[kParties] = {"client", "mbox0", "mbox1", "server"};

int mbox_party(size_t i) { return kMbox0 + static_cast<int>(i); }

// Span ring size for the traced half. The traced half stops before the ring
// could wrap, so no span is ever overwritten (obs.spans_dropped stays 0).
constexpr size_t kSpanBudget = size_t{1} << 16;
constexpr size_t kSpanHeadroom = 1024;

// Everything the traced half attaches: the existing span collector (which
// also holds the benchmark's own call spans), a tracer with a ring sink and
// per-session flight rings.
struct Observers {
    obs::SpanCollector spans{kSpanBudget};
    obs::Tracer tracer;
    obs::RingBufferSink ring{4096};
    obs::FlightRecorder flight{obs::FlightRecorder::Config{256, 16}};
    uint16_t bench_actor[kParties + 1] = {};  // "bench:<party>", then "bench:op"

    Observers()
    {
        tracer.add_sink(&ring);
        auto clock = [] { return now_ns() / 1000; };
        spans.set_clock(clock);
        tracer.set_clock(clock);
        flight.set_clock(clock);
        for (int p = 0; p < kParties; ++p)
            bench_actor[p] = spans.intern(std::string("bench:") + kPartyNames[p]);
        bench_actor[kParties] = spans.intern("bench:op");
    }
    bool budget_left() const { return spans.spans_emitted() + kSpanHeadroom < kSpanBudget; }
};

// One measured phase: per-party busy time from timed calls, and (traced)
// one bench span per call, parented under the operation's root span.
struct Phase {
    Observers* obs = nullptr;
    obs::Stage stage = obs::Stage::record;  // lane for the bench spans
    uint64_t busy_ns[kParties] = {};
    obs::SpanContext op_ctx;
    uint64_t op_start_ns = 0;

    template <class F>
    uint64_t call(int party, F&& f)
    {
        uint64_t t0 = now_ns();
        g_heap_on = true;
        f();
        g_heap_on = false;
        uint64_t t1 = now_ns();
        busy_ns[party] += t1 - t0;
        if (obs) emit(obs->bench_actor[party], op_ctx.trace_id, obs->spans.next_span_id(),
                      op_ctx.span_id, t0, t1);
        return t1 - t0;
    }

    void begin_op()
    {
        op_start_ns = now_ns();
        if (obs) op_ctx = obs->spans.begin_trace();
    }
    void end_op(uint64_t end_ns)
    {
        if (obs)
            emit(obs->bench_actor[kParties], op_ctx.trace_id, op_ctx.span_id, 0, op_start_ns,
                 end_ns);
    }

private:
    void emit(uint16_t actor, uint64_t trace, uint64_t span, uint64_t parent, uint64_t t0,
              uint64_t t1)
    {
        obs::SpanRecord r;
        r.trace_id = trace;
        r.span_id = span;
        r.parent_id = parent;
        r.start_ts = t0 / 1000;
        r.end_ts = t1 / 1000;
        r.cpu_ns = t1 - t0;
        r.actor = actor;
        r.stage = stage;
        obs->spans.emit(r);
    }
};

// ---------------------------------------------------------------------------
// PKI and chain construction.

struct Pki {
    crypto::HmacDrbg rng;
    pki::Authority ca;
    pki::TrustStore store;
    pki::Identity server_id;
    std::vector<pki::Identity> mbox_ids;

    Pki(uint64_t seed, size_t n_mboxes)
        : rng(str_to_bytes("perfbench-pki-" + std::to_string(seed))),
          ca("Bench CA", rng),
          server_id(ca.issue("server.example.com", rng))
    {
        store.add_root(ca.root_certificate());
        for (size_t i = 0; i < n_mboxes; ++i)
            mbox_ids.push_back(ca.issue("mbox" + std::to_string(i) + ".isp.net", rng));
    }
};

std::vector<mctls::ContextDescription> contexts_from(
    const std::vector<std::vector<Permission>>& grants)
{
    std::vector<mctls::ContextDescription> out;
    for (size_t i = 0; i < grants.size(); ++i) {
        mctls::ContextDescription c;
        c.id = static_cast<uint8_t>(i + 1);
        c.purpose = "ctx" + std::to_string(i + 1);
        c.permissions = grants[i];
        out.push_back(std::move(c));
    }
    return out;
}

struct ChainSpec {
    const Pki* pki = nullptr;
    Rng* rng = nullptr;
    const std::vector<mctls::ContextDescription>* contexts = nullptr;
    std::array<crypto::OpCounters*, kParties> ops{};
    mctls::ServerSessionCache* server_cache = nullptr;
    mctls::MiddleboxSessionCache* mbox_cache = nullptr;
    const mctls::ResumptionTicket* ticket = nullptr;
    std::function<Bytes(uint8_t, mctls::Direction, Bytes)> transform;
    Observers* obs = nullptr;
    uint64_t sid = 0;  // flight-ring session id
};

struct Chain {
    std::unique_ptr<mctls::Session> client;
    std::unique_ptr<mctls::Session> server;
    std::vector<std::unique_ptr<mctls::MiddleboxSession>> mboxes;
    std::vector<obs::FlightRing*> rings;
    Observers* obs = nullptr;

    Chain() = default;
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;
    // The moved-from chain must not close the rings again.
    Chain(Chain&& o) noexcept
        : client(std::move(o.client)),
          server(std::move(o.server)),
          mboxes(std::move(o.mboxes)),
          rings(std::exchange(o.rings, {})),
          obs(o.obs)
    {
    }
    Chain& operator=(Chain&&) = delete;
    ~Chain()
    {
        if (obs)
            for (auto* r : rings) obs->flight.close(r);
    }

    bool established() const
    {
        bool ok = client->handshake_complete() && server->handshake_complete() &&
                  !client->failed() && !server->failed();
        for (auto& m : mboxes) ok = ok && m->handshake_complete() && !m->failed();
        return ok;
    }
    bool resumed() const
    {
        bool ok = client->resumed() && server->resumed();
        for (auto& m : mboxes) ok = ok && m->resumed();
        return ok;
    }
};

// Build the sessions (each construction is a timed call into its party) and
// run the handshake to completion.
Chain open_chain(Phase& ph, const ChainSpec& spec)
{
    const Pki& pki = *spec.pki;
    size_t n_mboxes = spec.contexts->front().permissions.size();
    Chain chain;
    chain.obs = spec.obs;
    auto attach = [&](auto& cfg, int party) {
        cfg.ops = spec.ops[party];
        if (!spec.obs) return;
        cfg.tracer = &spec.obs->tracer;
        cfg.trace_actor = kPartyNames[party];
        cfg.spans = &spec.obs->spans;
        cfg.flight = spec.obs->flight.open(spec.sid, kPartyNames[party]);
        if (cfg.flight) chain.rings.push_back(cfg.flight);
    };

    ph.call(kClient, [&] {
        mctls::SessionConfig c;
        c.role = tls::Role::client;
        c.server_name = "server.example.com";
        c.contexts = *spec.contexts;
        for (size_t i = 0; i < n_mboxes; ++i)
            c.middleboxes.push_back(
                {pki.mbox_ids[i].certificate.subject, "mbox" + std::to_string(i)});
        c.trust = &pki.store;
        c.rng = spec.rng;
        c.ticket = spec.ticket;
        attach(c, kClient);
        chain.client = std::make_unique<mctls::Session>(std::move(c));
    });
    for (size_t i = 0; i < n_mboxes; ++i) {
        ph.call(mbox_party(i), [&] {
            mctls::MiddleboxConfig m;
            m.name = pki.mbox_ids[i].certificate.subject;
            m.chain = {pki.mbox_ids[i].certificate};
            m.private_key = pki.mbox_ids[i].private_key;
            m.rng = spec.rng;
            m.session_cache = spec.mbox_cache;
            m.transform = spec.transform;
            attach(m, mbox_party(i));
            chain.mboxes.push_back(std::make_unique<mctls::MiddleboxSession>(std::move(m)));
        });
    }
    ph.call(kServer, [&] {
        mctls::SessionConfig s;
        s.role = tls::Role::server;
        s.chain = {pki.server_id.certificate};
        s.private_key = pki.server_id.private_key;
        s.trust = &pki.store;
        // Paper §3.1: servers usually skip middlebox authentication.
        s.authenticate_middleboxes = false;
        s.rng = spec.rng;
        s.session_cache = spec.server_cache;
        attach(s, kServer);
        chain.server = std::make_unique<mctls::Session>(std::move(s));
    });

    auto& mb = chain.mboxes;
    ph.call(kClient, [&] { chain.client->start(); });
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<Bytes> units;
        ph.call(kClient, [&] { units = chain.client->take_write_units(); });
        for (auto& u : units) {
            progress = true;
            if (mb.empty())
                ph.call(kServer, [&] { (void)chain.server->feed(u); });
            else
                ph.call(kMbox0, [&] { (void)mb[0]->feed_from_client(u); });
        }
        for (size_t i = 0; i < mb.size(); ++i) {
            ph.call(mbox_party(i), [&] { units = mb[i]->take_to_server(); });
            for (auto& u : units) {
                progress = true;
                if (i + 1 < mb.size())
                    ph.call(mbox_party(i + 1), [&] { (void)mb[i + 1]->feed_from_client(u); });
                else
                    ph.call(kServer, [&] { (void)chain.server->feed(u); });
            }
        }
        ph.call(kServer, [&] { units = chain.server->take_write_units(); });
        for (auto& u : units) {
            progress = true;
            if (mb.empty())
                ph.call(kClient, [&] { (void)chain.client->feed(u); });
            else
                ph.call(mbox_party(mb.size() - 1), [&] { (void)mb.back()->feed_from_server(u); });
        }
        for (size_t i = mb.size(); i-- > 0;) {
            ph.call(mbox_party(i), [&] { units = mb[i]->take_to_client(); });
            for (auto& u : units) {
                progress = true;
                if (i > 0)
                    ph.call(mbox_party(i - 1), [&] { (void)mb[i - 1]->feed_from_server(u); });
                else
                    ph.call(kClient, [&] { (void)chain.client->feed(u); });
            }
        }
    }
    return chain;
}

// Send one payload from one endpoint through every middlebox to the other
// endpoint, carrying span contexts hop by hop when traced. Returns the
// chunks the receiver delivered; `mbox_ns[i]` gets middlebox i's call time.
std::vector<mctls::AppChunk> transfer(Phase& ph, Chain& c, bool from_client, uint8_t ctx,
                                      ConstBytes payload, std::vector<uint64_t>& mbox_ns,
                                      bool& ok)
{
    bool traced = ph.obs != nullptr;
    mctls::Session& tx = from_client ? *c.client : *c.server;
    mctls::Session& rx = from_client ? *c.server : *c.client;
    std::vector<Bytes> units;
    std::vector<obs::SpanContext> spans;
    ph.call(from_client ? kClient : kServer, [&] {
        ok = tx.send_app_data(ctx, payload).ok();
        units = tx.take_write_units();
        if (traced) spans = tx.take_unit_spans();
    });
    size_t n = c.mboxes.size();
    for (size_t hop = 0; hop < n && ok; ++hop) {
        size_t i = from_client ? hop : n - 1 - hop;
        auto& m = *c.mboxes[i];
        std::vector<Bytes> next;
        mbox_ns[i] = ph.call(mbox_party(i), [&] {
            for (size_t k = 0; k < units.size() && ok; ++k) {
                if (traced && k < spans.size()) m.queue_rx_span(from_client, spans[k]);
                ok = (from_client ? m.feed_from_client(units[k]) : m.feed_from_server(units[k]))
                         .ok();
            }
            next = from_client ? m.take_to_server() : m.take_to_client();
            if (traced) spans = from_client ? m.take_to_server_spans() : m.take_to_client_spans();
        });
        units = std::move(next);
    }
    std::vector<mctls::AppChunk> chunks;
    ph.call(from_client ? kServer : kClient, [&] {
        for (size_t k = 0; k < units.size() && ok; ++k) {
            if (traced && k < spans.size() && spans[k].valid()) rx.queue_rx_span(spans[k]);
            ok = rx.feed(units[k]).ok();
        }
        chunks = rx.take_app_data();
    });
    return chunks;
}

// ---------------------------------------------------------------------------
// Deterministic counters (exact for a fixed seed).

struct Det {
    uint64_t ops = 0;
    uint64_t handshakes = 0;
    uint64_t handshake_wire_bytes = 0;
    uint64_t resumed = 0;
    crypto::OpCounters party_ops[3];  // client, middlebox (mbox0), server
    crypto::OpCounters later_mboxes;  // middleboxes after mbox0 (floor only)
    uint64_t records = 0;
    uint64_t record_wire_bytes = 0;
    uint64_t macs_generated = 0;
    uint64_t macs_verified = 0;
    uint64_t cbc_encrypts = 0;  // record-layer CBC passes, for the floor
    uint64_t cbc_decrypts = 0;
    uint64_t payload_bytes = 0;  // sum of delivered record payload sizes
    uint64_t heap_allocs = 0;
    uint64_t heap_bytes = 0;
    uint64_t cache_hits[2] = {};  // server, middlebox
    uint64_t cache_lookups[2] = {};
};

// Protocol work summed over every party of a chain; differences of two
// snapshots give the work done in between.
struct Work {
    uint64_t macs_generated = 0, macs_verified = 0;
    uint64_t sealed = 0, opened = 0, mbox_read = 0, mbox_rewritten = 0;
    uint64_t overhead = 0;
};

Work work_of(const Chain& c)
{
    Work w;
    for (const mctls::Session* s : {c.client.get(), c.server.get()}) {
        obs::SessionStats st = s->session_stats();
        w.macs_generated += st.macs_generated;
        w.macs_verified += st.macs_verified;
        w.sealed += st.app_records_sent;
        w.opened += st.app_records_received;
        w.overhead += s->app_overhead_bytes();
    }
    for (auto& m : c.mboxes) {
        obs::SessionStats st = m->session_stats();
        w.macs_generated += st.macs_generated;
        w.macs_verified += st.macs_verified;
        w.mbox_read += m->records_read();
        w.mbox_rewritten += m->records_rewritten();
    }
    return w;
}

void add_work(Det& d, const Work& a, const Work& b)  // b - a
{
    d.macs_generated += b.macs_generated - a.macs_generated;
    d.macs_verified += b.macs_verified - a.macs_verified;
    d.cbc_encrypts += (b.sealed - a.sealed) + (b.mbox_rewritten - a.mbox_rewritten);
    d.cbc_decrypts += (b.opened - a.opened) + (b.mbox_read - a.mbox_read) +
                      (b.mbox_rewritten - a.mbox_rewritten);
    d.record_wire_bytes += b.overhead - a.overhead;
}

// ---------------------------------------------------------------------------
// Workloads.

struct OpStats {
    uint64_t records = 0;        // delivered chunks
    uint64_t payload_bytes = 0;  // delivered payload bytes
    int64_t rr_ns = -1;          // request -> response time (resume-churn)
};

// Per-record middlebox time, attributed by the context the bench sent.
struct PathTime {
    uint64_t ns[3] = {};     // blind, read, rewrite
    uint64_t count[3] = {};
    void add(Permission p, uint64_t ns_)
    {
        size_t i = static_cast<size_t>(p);
        ns[i] += ns_;
        count[i]++;
    }
};

class Workload {
public:
    virtual ~Workload() = default;
    virtual const char* name() const = 0;
    virtual bool handshake_ops() const = 0;
    // Rebuild every piece of state from the seed. Timed as setup_s.
    virtual void setup(uint64_t seed) = 0;
    // Called before a phase runs; `ph.obs` says whether it is traced.
    virtual void begin_phase(Phase&) {}
    virtual void end_phase() {}
    // One operation. `detail` asks for the deterministic counters.
    virtual bool op(Phase& ph, uint64_t i, OpStats& s, Det* detail) = 0;
    // Record workloads: snapshot the live chain around the detail window.
    virtual void det_begin() {}
    virtual void det_end(Det&) {}
    virtual std::string check_end() { return {}; }  // extra oracle at phase end

    uint64_t corrupt_every = 0;
    PathTime paths;

protected:
    // Oracle for one delivery: one chunk, right context, expected bytes and
    // the expected endpoint flag. Corruption (tests only) flips a byte of
    // the delivered copy first.
    bool check_delivery(std::vector<mctls::AppChunk>& chunks, uint8_t ctx, ConstBytes expect,
                        bool from_endpoint)
    {
        if (chunks.size() != 1) return false;
        auto& ch = chunks.front();
        if (corrupt_every && ++delivered_ % corrupt_every == 0 && !ch.data.empty())
            ch.data[ch.data.size() / 3] ^= 0x01;
        return ch.context_id == ctx && ch.from_endpoint == from_endpoint && equal(ch.data, expect);
    }

    uint64_t delivered_ = 0;
};

std::unique_ptr<crypto::HmacDrbg> drbg(const char* tag, uint64_t seed)
{
    return std::make_unique<crypto::HmacDrbg>(
        str_to_bytes(std::string("perfbench-") + tag + "-" + std::to_string(seed)));
}

std::vector<Bytes> payload_pool(uint64_t seed, size_t count, size_t size)
{
    TestRng rng(seed * 0x9e3779b97f4a7c15ull + size);
    std::vector<Bytes> pool;
    for (size_t i = 0; i < count; ++i) pool.push_back(rng.bytes(size));
    return pool;
}

// Full handshakes, 2 middleboxes, 4 contexts with mixed grants.
class HandshakeFull final : public Workload {
public:
    const char* name() const override { return "handshake-full"; }
    bool handshake_ops() const override { return true; }

    void setup(uint64_t seed) override
    {
        pki_ = std::make_unique<Pki>(seed, 2);
        rng_ = drbg("hs", seed);
        contexts_ = contexts_from({{Permission::read, Permission::write},
                                   {Permission::read, Permission::read},
                                   {Permission::none, Permission::read},
                                   {Permission::none, Permission::none}});
    }
    void begin_phase(Phase& ph) override
    {
        ph.stage = obs::Stage::handshake;
        obs_ = ph.obs;
    }

    bool op(Phase& ph, uint64_t i, OpStats&, Det* d) override
    {
        crypto::OpCounters ops[kParties];
        ChainSpec spec;
        spec.pki = pki_.get();
        spec.rng = rng_.get();
        spec.contexts = &contexts_;
        for (int p = 0; p < kParties; ++p) spec.ops[p] = &ops[p];
        spec.obs = obs_;
        spec.sid = i + 1;
        Chain c = open_chain(ph, spec);
        bool ok = c.established() && !c.client->resumed();
        if (d && ok) {
            d->handshakes++;
            d->handshake_wire_bytes += c.client->handshake_wire_bytes();
            d->party_ops[0] += ops[kClient];
            d->party_ops[1] += ops[kMbox0];
            d->party_ops[2] += ops[kServer];
            d->later_mboxes += ops[kMbox1];
        }
        return ok;
    }

private:
    std::unique_ptr<Pki> pki_;
    std::unique_ptr<crypto::HmacDrbg> rng_;
    std::vector<mctls::ContextDescription> contexts_;
    Observers* obs_ = nullptr;
};

// Abbreviated handshakes from a pool of primed tickets, then one request
// and one response per connection.
class ResumeChurn final : public Workload {
public:
    static constexpr size_t kTickets = 256;
    static constexpr size_t kContexts = 16;
    static constexpr size_t kRequest = 256;
    static constexpr size_t kResponse = 4096;

    const char* name() const override { return "resume-churn"; }
    bool handshake_ops() const override { return true; }

    void setup(uint64_t seed) override
    {
        pki_ = std::make_unique<Pki>(seed, 1);
        rng_ = drbg("rc", seed);
        stream_ = std::make_unique<TestRng>(seed);
        contexts_ = contexts_from(
            std::vector<std::vector<Permission>>(kContexts, {Permission::read}));
        server_cache_ = std::make_unique<mctls::ServerSessionCache>(size_t{4 * kTickets});
        mbox_cache_ = std::make_unique<mctls::MiddleboxSessionCache>(size_t{4 * kTickets});
        requests_ = payload_pool(seed, 64, kRequest);
        responses_ = payload_pool(seed, 64, kResponse);
        tickets_.clear();
        Phase prime;
        for (size_t i = 0; i < kTickets; ++i) {
            Chain c = open_chain(prime, spec(nullptr, nullptr, 0));
            if (!c.established())
                throw std::runtime_error("resume-churn: priming handshake failed");
            tickets_.push_back(c.client->ticket());
        }
    }
    void begin_phase(Phase& ph) override
    {
        ph.stage = obs::Stage::handshake;
        obs_ = ph.obs;
    }

    bool op(Phase& ph, uint64_t i, OpStats& s, Det* d) override
    {
        size_t t = stream_->below(kTickets);
        uint8_t ctx = static_cast<uint8_t>(1 + stream_->below(kContexts));
        const Bytes& req = requests_[stream_->below(requests_.size())];
        const Bytes& resp = responses_[stream_->below(responses_.size())];

        crypto::OpCounters ops[kParties];
        mctls::ServerSessionCache* sc = server_cache_.get();
        mctls::MiddleboxSessionCache* mc = mbox_cache_.get();
        util::CacheStats s0 = sc->stats(), m0 = mc->stats();
        ChainSpec cs = spec(&tickets_[t], ops, i + 1);
        Chain c = open_chain(ph, cs);
        if (!c.established() || !c.resumed()) return false;

        std::vector<uint64_t> mbox_ns(1);
        bool ok = true;
        uint64_t t0 = now_ns();
        auto got = transfer(ph, c, true, ctx, req, mbox_ns, ok);
        if (!ok || !check_delivery(got, ctx, req, true)) return false;
        paths.add(Permission::read, mbox_ns[0]);
        got = transfer(ph, c, false, ctx, resp, mbox_ns, ok);
        if (!ok || !check_delivery(got, ctx, resp, true)) return false;
        paths.add(Permission::read, mbox_ns[0]);
        s.rr_ns = static_cast<int64_t>(now_ns() - t0);
        s.records = 2;
        s.payload_bytes = req.size() + resp.size();
        tickets_[t] = c.client->ticket();

        if (d) {
            d->handshakes++;
            d->resumed++;
            d->handshake_wire_bytes += c.client->handshake_wire_bytes();
            d->party_ops[0] += ops[kClient];
            d->party_ops[1] += ops[kMbox0];
            d->party_ops[2] += ops[kServer];
            add_work(*d, Work{}, work_of(c));
            util::CacheStats s1 = sc->stats(), m1 = mc->stats();
            d->cache_hits[0] += s1.hits - s0.hits;
            d->cache_lookups[0] += (s1.hits + s1.misses) - (s0.hits + s0.misses);
            d->cache_hits[1] += m1.hits - m0.hits;
            d->cache_lookups[1] += (m1.hits + m1.misses) - (m0.hits + m0.misses);
        }
        return true;
    }

private:
    ChainSpec spec(const mctls::ResumptionTicket* ticket, crypto::OpCounters* ops, uint64_t sid)
    {
        ChainSpec s;
        s.pki = pki_.get();
        s.rng = rng_.get();
        s.contexts = &contexts_;
        if (ops)
            for (int p = 0; p < kParties; ++p) s.ops[p] = &ops[p];
        s.server_cache = server_cache_.get();
        s.mbox_cache = mbox_cache_.get();
        s.ticket = ticket;
        s.obs = obs_;
        s.sid = sid;
        return s;
    }

    std::unique_ptr<Pki> pki_;
    std::unique_ptr<crypto::HmacDrbg> rng_;
    std::unique_ptr<TestRng> stream_;
    std::vector<mctls::ContextDescription> contexts_;
    std::unique_ptr<mctls::ServerSessionCache> server_cache_;
    std::unique_ptr<mctls::MiddleboxSessionCache> mbox_cache_;
    std::vector<mctls::ResumptionTicket> tickets_;
    std::vector<Bytes> requests_, responses_;
    Observers* obs_ = nullptr;
};

// Records over one established chain. The untraced phases use the chain
// built in setup; a traced phase builds its own chain with observers
// attached (sessions take them at construction).
class RecordsWorkload : public Workload {
public:
    bool handshake_ops() const override { return false; }

    void setup(uint64_t seed) override
    {
        pki_ = std::make_unique<Pki>(seed, grants_.front().size());
        rng_ = drbg("rec", seed);
        stream_ = std::make_unique<TestRng>(seed);
        contexts_ = contexts_from(grants_);
        pool_ = payload_pool(seed, pool_size_, payload_size_);
        setup_ops_ = {};
        Phase ph;
        base_ = std::make_unique<Chain>(open_chain(ph, spec(nullptr, setup_ops_.data())));
        if (!base_->established())
            throw std::runtime_error(std::string(name()) + ": handshake failed");
    }
    void begin_phase(Phase& ph) override
    {
        ph.stage = obs::Stage::record;
        live_ = base_.get();
        if (ph.obs) {
            Phase untimed;
            traced_ = std::make_unique<Chain>(open_chain(untimed, spec(ph.obs, nullptr)));
            if (!traced_->established()) throw std::runtime_error("traced chain handshake failed");
            live_ = traced_.get();
        }
        path_base_ = mbox_counts(*live_);
        sent_ = {};
    }
    void end_phase() override { traced_.reset(); }

    void det_begin() override { work0_ = work_of(*live_); }
    void det_end(Det& d) override
    {
        add_work(d, work0_, work_of(*live_));
        d.handshakes = 1;
        d.handshake_wire_bytes = base_->client->handshake_wire_bytes();
        d.party_ops[0] = setup_ops_[kClient];
        d.party_ops[1] = setup_ops_[kMbox0];
        d.party_ops[2] = setup_ops_[kServer];
    }

    // Middlebox counters must match what the bench sent on each context.
    std::string check_end() override
    {
        auto now = mbox_counts(*live_);
        for (size_t m = 0; m < now.size(); ++m)
            for (size_t p = 0; p < 3; ++p)
                if (now[m][p] - path_base_[m][p] != sent_[m][p])
                    return "middlebox " + std::to_string(m) + " path counter mismatch";
        return {};
    }

protected:
    RecordsWorkload(std::vector<std::vector<Permission>> grants, size_t payload_size,
                    size_t pool_size)
        : grants_(std::move(grants)), payload_size_(payload_size), pool_size_(pool_size)
    {
    }

    // One record on context `ctx`; `expect` is what the receiver must get.
    bool send_record(Phase& ph, bool from_client, uint8_t ctx, const Bytes& payload,
                     ConstBytes expect, bool from_endpoint, OpStats& s)
    {
        Chain& c = *live_;
        size_t n = c.mboxes.size();
        bool ok = true;
        auto got = transfer(ph, c, from_client, ctx, payload, mbox_ns_, ok);
        if (!ok || !check_delivery(got, ctx, expect, from_endpoint)) return false;
        for (size_t m = 0; m < n; ++m) {
            Permission p = grants_[ctx - 1][m];
            paths.add(p, mbox_ns_[m]);
            sent_[m][static_cast<size_t>(p)]++;
        }
        s.records = 1;
        s.payload_bytes = got.front().data.size();
        return true;
    }

    std::vector<std::vector<Permission>> grants_;  // [context][middlebox]
    size_t payload_size_;
    size_t pool_size_;
    std::vector<Bytes> pool_;
    std::unique_ptr<TestRng> stream_;
    std::function<Bytes(uint8_t, mctls::Direction, Bytes)> transform_;

private:
    using Counts = std::vector<std::array<uint64_t, 3>>;  // [mbox][blind, read, rewrite]

    ChainSpec spec(Observers* obs, crypto::OpCounters* ops)
    {
        ChainSpec s;
        s.pki = pki_.get();
        s.rng = rng_.get();
        s.contexts = &contexts_;
        if (ops)
            for (int p = 0; p < kParties; ++p) s.ops[p] = &ops[p];
        s.transform = transform_;
        s.obs = obs;
        s.sid = obs ? 1 : 0;
        return s;
    }
    static Counts mbox_counts(const Chain& c)
    {
        Counts out;
        for (auto& m : c.mboxes)
            out.push_back(
                {m->records_forwarded_blind(), m->records_read(), m->records_rewritten()});
        return out;
    }

    std::unique_ptr<Pki> pki_;
    std::unique_ptr<crypto::HmacDrbg> rng_;
    std::vector<mctls::ContextDescription> contexts_;
    std::array<crypto::OpCounters, kParties> setup_ops_{};
    std::unique_ptr<Chain> base_, traced_;
    Chain* live_ = nullptr;
    Work work0_;
    Counts path_base_;
    std::array<std::array<uint64_t, 3>, 2> sent_{};
    std::vector<uint64_t> mbox_ns_ = std::vector<uint64_t>(2);
};

// 64 B client->server records alternating ctx1 (mbox0 reads, mbox1 blind)
// and ctx2 (both blind).
class RecordsTiny final : public RecordsWorkload {
public:
    RecordsTiny()
        : RecordsWorkload(
              {{Permission::read, Permission::none}, {Permission::none, Permission::none}}, 64,
              256)
    {
    }
    const char* name() const override { return "records-tiny"; }

    bool op(Phase& ph, uint64_t i, OpStats& s, Det*) override
    {
        uint8_t ctx = static_cast<uint8_t>(1 + (i & 1));
        const Bytes& p = pool_[stream_->below(pool_.size())];
        return send_record(ph, true, ctx, p, p, true, s);
    }
};

// 15000 B server->client records through one write-granted middlebox whose
// transform flips one byte; the client must see the rewrite, flagged as not
// from the endpoint.
class RecordsBulk final : public RecordsWorkload {
public:
    static constexpr size_t kSize = 15000;  // mctls kAppChunkLimit: one record

    RecordsBulk() : RecordsWorkload({{Permission::write}}, kSize, 16)
    {
        transform_ = [](uint8_t, mctls::Direction, Bytes b) {
            rewrite(b);
            return b;
        };
    }
    const char* name() const override { return "records-bulk"; }

    bool op(Phase& ph, uint64_t, OpStats& s, Det*) override
    {
        const Bytes& p = pool_[stream_->below(pool_.size())];
        expect_ = p;
        rewrite(expect_);
        return send_record(ph, false, 1, p, expect_, false, s);
    }

private:
    static void rewrite(Bytes& b)
    {
        if (!b.empty()) b[b.size() / 2] ^= 0xff;
    }
    Bytes expect_;
};

std::unique_ptr<Workload> make_workload(const std::string& name)
{
    if (name == "handshake-full") return std::make_unique<HandshakeFull>();
    if (name == "resume-churn") return std::make_unique<ResumeChurn>();
    if (name == "records-tiny") return std::make_unique<RecordsTiny>();
    if (name == "records-bulk") return std::make_unique<RecordsBulk>();
    return nullptr;
}

// Operations whose deterministic counters are taken (exact for a seed).
uint64_t detail_ops(const Workload& w)
{
    std::string n = w.name();
    if (n == "handshake-full") return 16;
    if (n == "resume-churn") return 128;
    if (n == "records-tiny") return 4096;
    return 256;
}

// ---------------------------------------------------------------------------
// Phase driver.

struct PhaseResult {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t ops = 0;
    uint64_t records = 0;
    uint64_t payload_bytes = 0;
    uint64_t wall_ns = 0;
    uint64_t busy_ns[kParties] = {};
    Histogram latency;
    Histogram rr;  // request -> response (resume-churn)
    std::vector<Histogram> per_second;  // latency by second of the phase
    Det det;
    std::string error;
};

// Median latency as the op-weighted mean of each second's median. The host
// this was tuned on alternates between two speeds; a whole-run median jumps
// between them as their mix crosses one half, while this moves smoothly
// with the mix, like the throughput does.
double steady_p50_ns(const PhaseResult& r)
{
    double sum = 0;
    uint64_t n = 0;
    for (const Histogram& h : r.per_second) {
        sum += h.quantile(0.5) * static_cast<double>(h.count());
        n += h.count();
    }
    return n ? sum / static_cast<double>(n) : 0;
}

// A p99 needs at least 10 samples above it.
constexpr uint64_t kP99Samples = 1000;

// Run operations until `seconds` elapse (or the span budget is spent, or,
// with `want_det`, at least until the deterministic-counter window is
// complete), stopping at the first failure so one broken chain is not
// counted twice.
PhaseResult run_phase(Workload& w, Observers* obs, double seconds, bool want_det)
{
    PhaseResult r;
    Phase ph;
    ph.obs = obs;
    w.begin_phase(ph);

    uint64_t k_det = detail_ops(w);
    uint64_t start = now_ns();
    uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t heap0 = g_heap_allocs, heap_b0 = g_heap_bytes;
    if (want_det) w.det_begin();

    for (uint64_t i = 0;; ++i) {
        bool det = want_det && i < k_det;  // the counter window always completes
        if (now_ns() >= end && !det) break;
        if (obs && !obs->budget_left()) break;
        OpStats s;
        ph.begin_op();
        r.attempted++;
        bool ok = false;
        try {
            ok = w.op(ph, i, s, det ? &r.det : nullptr);
        } catch (const std::exception& e) {
            r.error = e.what();
        }
        uint64_t t1 = now_ns();
        ph.end_op(t1);
        if (!ok) {
            r.failed++;
            if (r.error.empty()) r.error = "operation " + std::to_string(i) + " failed its check";
            break;
        }
        r.ops++;
        r.records += s.records;
        r.payload_bytes += s.payload_bytes;
        r.latency.add(t1 - ph.op_start_ns);
        size_t sec = static_cast<size_t>((t1 - start) / 1'000'000'000ull);
        if (sec >= r.per_second.size()) r.per_second.resize(sec + 1);
        r.per_second[sec].add(t1 - ph.op_start_ns);
        if (s.rr_ns >= 0) r.rr.add(static_cast<uint64_t>(s.rr_ns));
        if (det) {
            r.det.records += s.records;
            r.det.payload_bytes += s.payload_bytes;
            if (i + 1 == k_det) {
                r.det.ops = k_det;
                r.det.heap_allocs = g_heap_allocs - heap0;
                r.det.heap_bytes = g_heap_bytes - heap_b0;
                w.det_end(r.det);
            }
        }
    }
    r.wall_ns = now_ns() - start;
    for (int p = 0; p < kParties; ++p) r.busy_ns[p] = ph.busy_ns[p];
    if (r.failed == 0) {
        std::string extra = w.check_end();
        if (!extra.empty()) {
            r.failed++;
            r.error = extra;
        }
    }
    w.end_phase();
    return r;
}

// ---------------------------------------------------------------------------
// Crypto floor calibration: the public primitives, timed in this process.

struct Calib {
    std::map<std::string, std::vector<double>> ns;  // primitive -> per-op ns per batch

    template <class F>
    void time(const std::string& key, int batches, int per_batch, F&& f)
    {
        for (int b = 0; b < batches; ++b) {
            uint64_t t0 = now_ns();
            for (int i = 0; i < per_batch; ++i) f();
            ns[key].push_back(static_cast<double>(now_ns() - t0) / per_batch);
        }
    }
    double get(const std::string& key) const { return median(ns.at(key)); }
};

volatile uint8_t g_sink = 0;  // keeps timed results observable

void sink(uint8_t v) { g_sink = static_cast<uint8_t>(g_sink ^ v); }

void calibrate(Calib& c, uint64_t seed)
{
    TestRng rng(seed ^ 0xca1b);
    auto kp = crypto::x25519_keypair(rng);
    auto peer = crypto::x25519_keypair(rng);
    auto ed = crypto::ed25519_keypair(rng);
    Bytes msg = rng.bytes(128);
    Bytes sig = crypto::ed25519_sign(ed.private_key, msg);
    Bytes secret = rng.bytes(48), seed64 = rng.bytes(64);
    Bytes key32 = rng.bytes(32), small = rng.bytes(64), big = rng.bytes(15000);
    crypto::Aes128 aes(rng.bytes(16));
    Bytes ct, pt;
    ct.reserve(15100);
    pt.reserve(15100);
    crypto::aes128_cbc_encrypt_into(aes, big, rng, ct);

    c.time("x25519", 5, 20,
           [&] { sink(crypto::x25519_shared(kp.private_key, peer.public_key).value()[0]); });
    c.time("ed25519_sign", 5, 10, [&] { sink(crypto::ed25519_sign(ed.private_key, msg)[0]); });
    c.time("ed25519_verify", 5, 10, [&] { sink(crypto::ed25519_verify(ed.public_key, msg, sig)); });
    c.time("prf_128B", 5, 200, [&] { sink(crypto::prf(secret, "key expansion", seed64, 128)[0]); });
    auto hmac = [&](ConstBytes data) {
        crypto::HmacSha256 h(key32);
        h.update(data);
        sink(h.finish_tag()[0]);
    };
    c.time("hmac_sha256_64B", 5, 2000, [&] { hmac(small); });
    c.time("hmac_sha256_15000B", 5, 50, [&] { hmac(big); });
    c.time("aes128_cbc_enc_15000B", 5, 50, [&] {
        pt.clear();
        crypto::aes128_cbc_encrypt_into(aes, big, rng, pt);
        sink(pt[20]);
    });
    c.time("aes128_cbc_dec_15000B", 5, 50, [&] {
        pt.clear();
        sink(crypto::aes128_cbc_decrypt_into(aes, ct, pt).ok());
    });
}

// Lower bound on the protocol's per-operation CPU time: what the Table 3
// operations and the record-layer MAC/CBC passes cost at calibrated speed.
double floor_ns_per_op(const Calib& c, const Det& d, bool handshake_ops, double record_payload)
{
    if (d.ops == 0) return 0;
    crypto::OpCounters all = d.later_mboxes;
    for (const auto& o : d.party_ops) all += o;
    double hs = all.secret_comp * c.get("x25519") + all.asym_sign * c.get("ed25519_sign") +
                all.asym_verify * c.get("ed25519_verify") + all.hash * c.get("prf_128B");
    // Handshake work counts only where the operations are handshakes (the
    // record workloads handshake once, in setup).
    double hs_per_op = handshake_ops ? hs / static_cast<double>(d.ops) : 0;
    double n = record_payload;
    double h64 = c.get("hmac_sha256_64B"), h15k = c.get("hmac_sha256_15000B");
    double hmac_n = h64 + (n - 64) * (h15k - h64) / (15000 - 64);
    double cbc_scale = (n + 96) / (15000 + 96);  // payload plus three MACs
    double rec = d.macs_generated * hmac_n + d.macs_verified * hmac_n +
                 d.cbc_encrypts * c.get("aes128_cbc_enc_15000B") * cbc_scale +
                 d.cbc_decrypts * c.get("aes128_cbc_dec_15000B") * cbc_scale;
    return hs_per_op + rec / static_cast<double>(d.ops);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string num(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void print_table(const char* title, const std::vector<std::pair<std::string, std::string>>& rows)
{
    std::printf("== %s\n", title);
    for (auto& [k, v] : rows) std::printf("  %-44s %s\n", k.c_str(), v.c_str());
}

std::string fmt(double v, const char* unit)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.6g %s", v, unit);
    return buf;
}

// Peak resident set of this program image. VmHWM, not getrusage: the
// latter also counts a parent's footprint inherited across fork+exec.
double peak_rss_mb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string trace_out;
    uint64_t corrupt_every = 0;
};

std::optional<Args> parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else if (k == "--trace-out")
            a.trace_out = v;
        else if (k == "--corrupt-every")
            a.corrupt_every = std::stoull(v);
        else
            return std::nullopt;
    }
    if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
        return std::nullopt;
    return a;
}

constexpr const char* kOpNames[7] = {"hash",        "secret_comp", "key_gen",    "asym_sign",
                                     "asym_verify", "sym_encrypt", "sym_decrypt"};
uint64_t op_field(const crypto::OpCounters& c, int i)
{
    const uint64_t f[7] = {c.hash, c.secret_comp, c.key_gen, c.asym_sign,
                           c.asym_verify, c.sym_encrypt, c.sym_decrypt};
    return f[i];
}

// Times repeated setups: at least 3, up to 200 while they stay within a
// second. Appends one duration (s) per setup to `out`.
void timed_setup(Workload& w, uint64_t seed, std::vector<double>& out)
{
    uint64_t begin = now_ns();
    for (size_t n = 0; n < 3 || (n < 200 && now_ns() - begin < 1'000'000'000ull); ++n) {
        uint64_t t0 = now_ns();
        w.setup(seed);
        out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
}

int run(const Args& a)
{
    auto w = make_workload(a.workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    w->corrupt_every = a.corrupt_every;
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", w->name(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);

    std::vector<double> setups;
    timed_setup(*w, a.seed, setups);
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> rows;
    uint64_t attempted = 0, failed = 0;
    std::string error;
    bool hs = w->handshake_ops();
    auto absent = [&](const char* n) { rows.push_back({n, "absent (does not apply)"}); };

    if (a.trace == 0) {
        PhaseResult r = run_phase(*w, nullptr, a.seconds, false);
        // Set up again after measuring (and report the median of both
        // rounds), so one host state does not decide setup_s.
        timed_setup(*w, a.seed, setups);
        double setup_s = median(setups);
        attempted = r.attempted;
        failed = r.failed;
        error = r.error;
        double secs = static_cast<double>(r.wall_ns) / 1e9;
        double ops_s = r.ops / secs;
        double server_rate = r.busy_ns[kServer] ? r.ops / (r.busy_ns[kServer] / 1e9) : 0;
        double mbox_rate = r.busy_ns[kMbox0] ? r.ops / (r.busy_ns[kMbox0] / 1e9) : 0;
        double p50 = steady_p50_ns(r) / 1e3, p99 = r.latency.quantile(0.99) / 1e3;
        double rss = peak_rss_mb();
        metrics = {
            {"ops_per_s", ops_s, "1/s"},
            {"op_p50_us", p50, "us"},
            {"op_p99_us", p99, "us"},
            {"server_ops_per_cpu_s", server_rate, "1/s"},
            {"middlebox_ops_per_cpu_s", mbox_rate, "1/s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_MB", rss, "MB"},
        };
        auto samples = [](const Histogram& h) {
            std::string n = " (n=" + std::to_string(h.count()) + ")";
            if (h.count() < kP99Samples) n += " [fewer than 10 samples above p99]";
            return n;
        };
        if (hs) {
            rows.push_back({"handshakes_per_s", fmt(ops_s, "1/s")});
            rows.push_back({"handshake_p50_us", fmt(p50, "us") + samples(r.latency)});
            rows.push_back({"handshake_p99_us", fmt(p99, "us") + samples(r.latency)});
            rows.push_back({"server_handshakes_per_cpu_s", fmt(server_rate, "1/s")});
            rows.push_back({"middlebox_handshakes_per_cpu_s", fmt(mbox_rate, "1/s")});
        } else {
            absent("handshakes_per_s");
            absent("handshake_p50_us");
            absent("handshake_p99_us");
            absent("server_handshakes_per_cpu_s");
            absent("middlebox_handshakes_per_cpu_s");
        }
        if (r.records) {
            // On resume-churn a record's latency is the request -> response time.
            const Histogram& rec = hs ? r.rr : r.latency;
            rows.push_back({"records_per_s", fmt(r.records / secs, "1/s")});
            rows.push_back({"goodput_MBps", fmt(r.payload_bytes / secs / 1e6, "MB/s")});
            rows.push_back({"record_p50_us", fmt(rec.quantile(0.50) / 1e3, "us") + samples(rec)});
            rows.push_back({"record_p99_us", fmt(rec.quantile(0.99) / 1e3, "us") + samples(rec)});
        } else {
            absent("records_per_s");
            absent("goodput_MBps");
            absent("record_p50_us");
            absent("record_p99_us");
        }
        rows.push_back({"fail_ratio", num(attempted ? double(failed) / attempted : 1.0)});
        rows.push_back({"setup_s", fmt(setup_s, "s")});
        rows.push_back({"peak_rss_MB", fmt(rss, "MB")});
        print_table("end-to-end (untraced)", rows);
    } else {
        Calib cal;
        calibrate(cal, a.seed);
        PhaseResult plain = run_phase(*w, nullptr, a.seconds / 2, true);
        auto obs = std::make_unique<Observers>();
        PhaseResult traced;
        if (plain.failed == 0) traced = run_phase(*w, obs.get(), a.seconds / 2, false);
        calibrate(cal, a.seed + 1);
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        error = !plain.error.empty() ? plain.error : traced.error;

        // Per-layer time from the benchmark's own call spans.
        std::vector<obs::SpanRecord> spans = obs->spans.ordered();
        // A party's self time is the sum of its call spans (they have no
        // bench children); the sessions' own spans are stage costs inside them.
        double party_ns[kParties] = {};
        std::map<obs::Stage, double> stage_ns;  // summed over every hop
        double mbox_stage_ns = 0;               // stages run inside middleboxes
        uint64_t traced_records = traced.records ? traced.records : 1;
        for (const auto& s : spans) {
            const uint16_t* first = obs->bench_actor;
            const uint16_t* last = first + kParties + 1;
            const uint16_t* it = std::find(first, last, s.actor);
            if (it == last) {
                stage_ns[s.stage] += s.cpu_ns;
                if (obs->spans.actor_name(s.actor).rfind("mbox", 0) == 0) mbox_stage_ns += s.cpu_ns;
            } else if (it - first < kParties)
                party_ns[it - first] += s.cpu_ns;
        }
        double t_ops = traced.ops ? static_cast<double>(traced.ops) : 1;
        double wall = static_cast<double>(traced.wall_ns);
        double mbox_ns = party_ns[kMbox0] + party_ns[kMbox1];
        double unattributed = wall - (party_ns[kClient] + mbox_ns + party_ns[kServer]);

        const Det& d = plain.det;

        // Floor against the untraced per-party time.
        double plain_busy = 0;
        for (int p = 0; p < kParties; ++p) plain_busy += plain.busy_ns[p];
        double plain_ns_per_op = plain.ops ? plain_busy / plain.ops : 0;
        double payload = d.records ? static_cast<double>(d.payload_bytes) / d.records : 64;
        double floor = floor_ns_per_op(cal, d, hs, payload);

        auto us = [](double ns_, double n) { return ns_ / 1e3 / n; };
        metrics = {
            {"mctls.client.busy_us_per_op", us(party_ns[kClient], t_ops), "us"},
            {"mctls.server.busy_us_per_op", us(party_ns[kServer], t_ops), "us"},
            {"mctls.middlebox.busy_us_per_op", us(mbox_ns, t_ops), "us"},
            {"mctls.handshake_wire_bytes", ratio(d.handshake_wire_bytes, d.handshakes), "bytes"},
            {"mctls.wire_bytes_per_record",
             ratio(d.record_wire_bytes + d.payload_bytes, d.records), "bytes"},
            {"mctls.macs_generated_per_record", ratio(d.macs_generated, d.records), "count"},
            {"mctls.macs_verified_per_record", ratio(d.macs_verified, d.records), "count"},
            {"mctls.resumed_ratio", ratio(d.resumed, d.handshakes), "ratio"},
        };
        const char* party_label[3] = {"client", "middlebox", "server"};
        for (int p = 0; p < 3; ++p)
            for (int o = 0; o < 7; ++o)
                metrics.push_back({std::string("crypto.ops.") + party_label[p] + "." + kOpNames[o],
                                   ratio(op_field(d.party_ops[p], o), d.handshakes), "count"});
        metrics.push_back({"crypto.x25519_us", cal.get("x25519") / 1e3, "us"});
        metrics.push_back({"crypto.ed25519_sign_us", cal.get("ed25519_sign") / 1e3, "us"});
        metrics.push_back({"crypto.ed25519_verify_us", cal.get("ed25519_verify") / 1e3, "us"});
        for (const char* k : {"prf_128B", "hmac_sha256_64B", "hmac_sha256_15000B",
                              "aes128_cbc_enc_15000B", "aes128_cbc_dec_15000B"})
            metrics.push_back({std::string("crypto.") + k + "_ns", cal.get(k), "ns"});
        metrics.push_back({"crypto.floor_ratio", ratio(floor, plain_ns_per_op), "ratio"});
        metrics.push_back({"util.heap_allocs_per_op", ratio(d.heap_allocs, d.ops), "count"});
        metrics.push_back({"util.heap_bytes_per_op", ratio(d.heap_bytes, d.ops), "bytes"});
        metrics.push_back({"util.cache.server.hit_ratio",
                           ratio(d.cache_hits[0], d.cache_lookups[0]), "ratio"});
        metrics.push_back({"util.cache.middlebox.hit_ratio",
                           ratio(d.cache_hits[1], d.cache_lookups[1]), "ratio"});
        double plain_rate = ratio(plain.ops, plain.wall_ns / 1e9);
        double traced_rate = ratio(traced.ops, traced.wall_ns / 1e9);
        metrics.push_back({"obs.overhead_ratio", ratio(plain_rate, traced_rate), "ratio"});
        metrics.push_back({"obs.spans_dropped", double(obs->spans.dropped()), "count"});
        metrics.push_back({"harness.unattributed_ratio", ratio(unattributed, wall), "ratio"});

        for (const auto& m : metrics) rows.push_back({m.name, fmt(m.value, m.unit.c_str())});
        // Path- and stage-specific figures apply to some workloads only.
        const char* path_names[3] = {"blind", "read", "rewrite"};
        for (size_t p = 0; p < 3; ++p) {
            std::string n = std::string("mctls.middlebox.") + path_names[p] + "_ns_per_record";
            if (w->paths.count[p])
                rows.push_back({n, fmt(double(w->paths.ns[p]) / w->paths.count[p], "ns") +
                                       " (n=" + std::to_string(w->paths.count[p]) + ")"});
            else
                absent(n.c_str());
        }
        for (auto st : {obs::Stage::encode, obs::Stage::mac, obs::Stage::encrypt,
                        obs::Stage::decrypt_verify, obs::Stage::reseal}) {
            std::string n = std::string("obs.span.") + obs::to_string(st) + "_ns_per_record";
            if (traced.records && stage_ns.count(st))
                rows.push_back({n, fmt(stage_ns[st] / traced_records, "ns")});
            else
                absent(n.c_str());
        }
        // Forwarding spans carry no CPU cost of their own: on the record
        // workloads it is the middleboxes' call time minus the stages they
        // ran inside those calls.
        if (!hs && traced.records) {
            double mb = party_ns[kMbox0] + party_ns[kMbox1] - mbox_stage_ns;
            rows.push_back({"obs.span.forward_ns_per_record", fmt(mb / traced_records, "ns")});
        } else {
            absent("obs.span.forward_ns_per_record");
        }
        rows.push_back({"obs.trace_events / dropped",
                        std::to_string(obs->tracer.events_emitted()) + " / " +
                            std::to_string(obs->tracer.events_dropped()) + " (ring sink)"});
        rows.push_back({"obs.flight_events / dropped",
                        std::to_string(obs->flight.events_recorded()) + " / " +
                            std::to_string(obs->flight.events_dropped())});
        char sum[256];
        std::snprintf(sum, sizeof(sum),
                      "client %.0f + mbox %.0f + server %.0f + unattributed %.0f = wall %.0f ns",
                      party_ns[kClient], party_ns[kMbox0] + party_ns[kMbox1], party_ns[kServer],
                      unattributed, wall);
        rows.push_back({"traced wall-time breakdown", sum});
        rows.push_back({"traced ops / untraced ops", std::to_string(traced.ops) + " / " +
                                                          std::to_string(plain.ops)});
        rows.push_back({"crypto floor per op", fmt(floor / 1e3, "us")});
        print_table("per-layer (traced run; counters from the untraced half)", rows);

        if (!a.trace_out.empty()) {
            std::vector<obs::TraceEvent> events = obs->ring.ordered();
            obs::ChromeTraceInput in;
            in.spans = &spans;
            in.span_actors = &obs->spans;
            in.events = &events;
            in.event_actors = &obs->tracer;
            std::ofstream out(a.trace_out, std::ios::trunc);
            out << obs::to_chrome_trace(in);
            if (!out) std::fprintf(stderr, "warning: could not write %s\n", a.trace_out.c_str());
            else std::printf("chrome trace: %s (%zu spans)\n", a.trace_out.c_str(), spans.size());
        }
    }

    bool correct = failed == 0;
    if (!correct) std::printf("CORRECTNESS FAILURE: %s\n", error.c_str());
    std::string js = "{\"correct\": ";
    js += correct ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i) js += ", ";
        js += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    js += "}}";
    std::printf("%s\n", js.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
    auto args = parse(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: %s --workload <handshake-full|resume-churn|records-tiny|records-bulk> "
                     "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
                     "[--corrupt-every <n>]\n",
                     argv[0]);
        return 2;
    }
    try {
        return run(*args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
