// End-to-end pin of the record fast path's steady-state property: once a
// session (or middlebox) has seen its largest record, further app records
// are decrypted into the reused scratch without touching the heap. The
// scratch counters feed the records-per-allocation metric the benches
// report; this test makes the property a CI invariant, not a bench artifact.
#include <gtest/gtest.h>

#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "tests/mctls/harness.h"

namespace mct::mctls {
namespace {

using test::ChainEnv;

TEST(RecordFastPath, SteadyStateOpensDoNotAllocate)
{
    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    env.build(2, {ctx});
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    // Warm-up: one record at the largest payload this test will send, both
    // directions, so every scratch reaches its high-water capacity.
    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;
    uint64_t read_records = env.mboxes[0]->open_scratch().records;
    uint64_t write_records = env.mboxes[1]->open_scratch().records;

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    // Every hop opened every record...
    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.mboxes[0]->open_scratch().records, read_records + 100);
    EXPECT_EQ(env.mboxes[1]->open_scratch().records, write_records + 100);
    // ...and no hop allocated for any of them.
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);
}

// The latency-attribution plane must not disturb the fast path: with a span
// collector attached at every hop and transport contexts flowing record by
// record (the relay queues each unit's context before its bytes) — so the
// instrumented open path runs, not the untraced one — the steady-state
// scratch still never grows.
TEST(RecordFastPath, SteadyStateOpensDoNotAllocateWithSpans)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "span emission compiled out under MCT_OBS=OFF";
#endif
    uint64_t tick = 0;
    obs::SpanCollector spans(1 << 15);
    spans.set_clock([&tick] { return ++tick; });

    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    auto infos = env.make_middleboxes(2);
    auto ccfg = env.client_config(infos, {ctx});
    ccfg.spans = &spans;
    env.client = std::make_unique<Session>(ccfg);
    auto scfg = env.server_config();
    scfg.spans = &spans;
    env.server = std::make_unique<Session>(scfg);
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        mcfg.spans = &spans;
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);

    // The spans actually flowed: the contexts survived the whole chain, so
    // every delivered record emitted a deliver span at its endpoint.
    EXPECT_EQ(spans.dropped(), 0u);
    size_t delivers = 0;
    for (const auto& s : spans.ordered())
        if (s.stage == obs::Stage::deliver) ++delivers;
    EXPECT_GE(delivers, 100u);
}

// The flight-recorder plane must be equally invisible: with the shared
// tracer *and* a per-hop black-box ring attached (the always-on production
// shape from DESIGN.md §17), steady-state opens still never allocate, the
// tracer's sink never overflows (obs.trace.dropped == 0 on the hub — the
// steady-state health gate), and the recorder demonstrably captured the
// traffic it rode along with.
TEST(RecordFastPath, SteadyStateOpensDoNotAllocateWithFlightRecorder)
{
#if !defined(MCT_OBS_ENABLED)
    GTEST_SKIP() << "trace/flight emission compiled out under MCT_OBS=OFF";
#endif
    obs::Hub hub;
    obs::RingBufferSink sink(1 << 16);  // ample: nothing may drop
    hub.tracer.add_sink(&sink);
    obs::FlightRecorder flight;  // default: 128-event rings, 1024 slots

    ChainEnv env;
    ContextDescription ctx;
    ctx.id = 1;
    ctx.purpose = "body";
    ctx.permissions = {Permission::read, Permission::write};
    auto infos = env.make_middleboxes(2);
    auto ccfg = env.client_config(infos, {ctx});
    ccfg.tracer = &hub.tracer;
    ccfg.trace_actor = "client";
    ccfg.flight = flight.open(1, "client");
    env.client = std::make_unique<Session>(ccfg);
    auto scfg = env.server_config();
    scfg.tracer = &hub.tracer;
    scfg.trace_actor = "server";
    scfg.flight = flight.open(0, "server");
    env.server = std::make_unique<Session>(scfg);
    for (size_t i = 0; i < 2; ++i) {
        auto mcfg = env.mbox_config(i);
        mcfg.tracer = &hub.tracer;
        mcfg.trace_actor = "mbox" + std::to_string(i);
        mcfg.flight = flight.open(0, "mbox" + std::to_string(i));
        env.mboxes.push_back(std::make_unique<MiddleboxSession>(mcfg));
    }
    env.handshake();
    ASSERT_TRUE(env.all_complete());

    Bytes big(4000, 0x42);
    ASSERT_TRUE(env.client->send_app_data(1, big).ok());
    env.pump();
    ASSERT_TRUE(env.server->send_app_data(1, big).ok());
    env.pump();
    env.server->take_app_data();
    env.client->take_app_data();

    uint64_t server_allocs = env.server->open_scratch().heap_allocations;
    uint64_t client_allocs = env.client->open_scratch().heap_allocations;
    uint64_t read_allocs = env.mboxes[0]->open_scratch().heap_allocations;
    uint64_t write_allocs = env.mboxes[1]->open_scratch().heap_allocations;
    uint64_t server_records = env.server->open_scratch().records;
    uint64_t events_before = flight.events_recorded();

    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(env.client->send_app_data(1, Bytes(1460, uint8_t(i))).ok());
        ASSERT_TRUE(env.server->send_app_data(1, Bytes(512, uint8_t(i))).ok());
        env.pump();
    }
    EXPECT_EQ(env.server->take_app_data().size(), 50u);
    EXPECT_EQ(env.client->take_app_data().size(), 50u);

    EXPECT_EQ(env.server->open_scratch().records, server_records + 50);
    EXPECT_EQ(env.server->open_scratch().heap_allocations, server_allocs);
    EXPECT_EQ(env.client->open_scratch().heap_allocations, client_allocs);
    EXPECT_EQ(env.mboxes[0]->open_scratch().heap_allocations, read_allocs);
    EXPECT_EQ(env.mboxes[1]->open_scratch().heap_allocations, write_allocs);

    // The recorder rode the whole run: steady-state records landed in rings.
    EXPECT_GT(flight.events_recorded(), events_before);
    EXPECT_EQ(flight.rings_denied(), 0u);

    // Steady-state trace health: an amply-sized sink dropped nothing, and
    // the gate metric reflects that on the hub.
    hub.publish_trace_health();
    EXPECT_EQ(hub.metrics.counter("obs.trace.dropped")->value(), 0u);
}

}  // namespace
}  // namespace mct::mctls
