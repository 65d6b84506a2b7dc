// Event loop, overlay network, routing, trust and traffic accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "net/backoff.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/overlay.hpp"
#include "util/random.hpp"

namespace cop::net {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
    EventLoop loop;
    std::vector<int> order;
    loop.schedule(3.0, [&] { order.push_back(3); });
    loop.schedule(1.0, [&] { order.push_back(1); });
    loop.schedule(2.0, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(loop.now(), 3.0);
}

TEST(EventLoop, FifoForEqualTimes) {
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        loop.schedule(1.0, [&order, i] { order.push_back(i); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, EventsCanScheduleMoreEvents) {
    EventLoop loop;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10) loop.schedule(1.0, chain);
    };
    loop.schedule(0.0, chain);
    loop.run();
    EXPECT_EQ(fired, 10);
    EXPECT_DOUBLE_EQ(loop.now(), 9.0);
}

TEST(EventLoop, RunUntilAdvancesClockAndStops) {
    EventLoop loop;
    int fired = 0;
    loop.schedule(1.0, [&] { ++fired; });
    loop.schedule(5.0, [&] { ++fired; });
    const auto n = loop.runUntil(2.0);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(loop.now(), 2.0);
    EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunWithLimit) {
    EventLoop loop;
    for (int i = 0; i < 10; ++i)
        loop.schedule(double(i), [] {});
    EXPECT_EQ(loop.run(4), 4u);
    EXPECT_EQ(loop.pending(), 6u);
}

TEST(EventLoop, RejectsPastScheduling) {
    EventLoop loop;
    loop.schedule(1.0, [] {});
    loop.run();
    EXPECT_THROW(loop.scheduleAt(0.5, [] {}), cop::InvalidArgument);
    EXPECT_THROW(loop.schedule(-1.0, [] {}), cop::InvalidArgument);
}

struct TestNet {
    EventLoop loop;
    OverlayNetwork net{loop};

    Node makeNode(const std::string& name, std::uint64_t seed) {
        return Node(net, name, KeyPair::generate(seed));
    }
};

void mutualTrust(Node& a, Node& b) {
    a.trust(b.publicKey());
    b.trust(a.publicKey());
}

TEST(Overlay, ConnectRequiresMutualTrust) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    EXPECT_THROW(t.net.connect(a.id(), b.id(), {}), cop::InvalidArgument);
    a.trust(b.publicKey()); // one-way is not enough
    EXPECT_THROW(t.net.connect(a.id(), b.id(), {}), cop::InvalidArgument);
    b.trust(a.publicKey());
    t.net.connect(a.id(), b.id(), {});
    EXPECT_TRUE(t.net.connected(a.id(), b.id()));
}

TEST(Overlay, DirectDeliveryWithLatency) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), LinkProperties{0.5, 1e6});

    double deliveredAt = -1.0;
    b.setHandler([&](const Message&) { deliveredAt = t.loop.now(); });
    Message msg;
    msg.type = MessageType::Heartbeat;
    msg.source = a.id();
    msg.destination = b.id();
    msg.payload.assign(100, 0);
    t.net.send(msg);
    t.loop.run();
    // latency + bytes/bandwidth = 0.5 + 196/1e6.
    EXPECT_NEAR(deliveredAt, 0.5 + 196.0 / 1e6, 1e-9);
}

TEST(Overlay, MultiHopRoutingTakesLowestLatencyPath) {
    // a - b - d (fast), a - c - d (slow): message a->d goes via b.
    TestNet t;
    Node a = t.makeNode("a", 1), b = t.makeNode("b", 2),
         c = t.makeNode("c", 3), d = t.makeNode("d", 4);
    mutualTrust(a, b);
    mutualTrust(a, c);
    mutualTrust(b, d);
    mutualTrust(c, d);
    t.net.connect(a.id(), b.id(), LinkProperties{0.01, 1e9});
    t.net.connect(b.id(), d.id(), LinkProperties{0.01, 1e9});
    t.net.connect(a.id(), c.id(), LinkProperties{1.0, 1e9});
    t.net.connect(c.id(), d.id(), LinkProperties{1.0, 1e9});

    EXPECT_EQ(t.net.nextHop(a.id(), d.id()), b.id());

    int delivered = 0;
    d.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = a.id();
    msg.destination = d.id();
    t.net.send(msg);
    t.loop.run();
    EXPECT_EQ(delivered, 1);
    // Traffic accounted on both hops of the fast path, none on the slow.
    EXPECT_EQ(t.net.linkStats(a.id(), b.id()).messages, 1u);
    EXPECT_EQ(t.net.linkStats(b.id(), d.id()).messages, 1u);
    EXPECT_EQ(t.net.linkStats(a.id(), c.id()).messages, 0u);
}

TEST(Overlay, UnreachableDestinationDeadLetters) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    std::vector<DeadLetterReason> reasons;
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason r) { reasons.push_back(r); });
    Message msg;
    msg.source = a.id();
    msg.destination = b.id();
    EXPECT_NO_THROW(t.net.send(msg));
    EXPECT_EQ(t.net.faultStats().deadLetters, 1u);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_EQ(reasons[0], DeadLetterReason::NoRoute);
    // Invalid node ids are still programming errors, not network faults.
    Message bad;
    bad.source = a.id();
    bad.destination = kInvalidNode;
    EXPECT_THROW(t.net.send(bad), cop::InvalidArgument);
}

TEST(Overlay, StatsAggregation) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    for (int i = 0; i < 3; ++i) {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        msg.payload.assign(10, 0);
        t.net.send(msg);
    }
    t.loop.run();
    EXPECT_EQ(t.net.totalStats().messages, 3u);
    EXPECT_EQ(t.net.nodeStats(a.id()).messages, 3u);
    EXPECT_EQ(t.net.totalStats().bytes, 3u * 106u);
}

TEST(Overlay, MessageTypeNames) {
    EXPECT_STREQ(messageTypeName(MessageType::Heartbeat), "Heartbeat");
    EXPECT_STREQ(messageTypeName(MessageType::WorkerFailed), "WorkerFailed");
}

TEST(Overlay, HeartbeatWireSizeIsSmall) {
    // Paper: "a message size typically less than 200 bytes".
    Message hb;
    hb.type = MessageType::Heartbeat;
    hb.payload.assign(60, 0); // typical encoded heartbeat
    EXPECT_LT(hb.wireSize(), 200u);
}

TEST(KeyPairTest, GenerationIsDeterministicAndDistinct) {
    const auto a = KeyPair::generate(1);
    const auto b = KeyPair::generate(1);
    const auto c = KeyPair::generate(2);
    EXPECT_EQ(a.publicKey, b.publicKey);
    EXPECT_NE(a.publicKey, c.publicKey);
    EXPECT_NE(a.publicKey, a.privateKey);
}


TEST(Overlay, SharedFilesystemSkipsBulkPayloadBytes) {
    TestNet t;
    Node a = t.makeNode("worker", 1);
    Node b = t.makeNode("head", 2);
    mutualTrust(a, b);
    LinkProperties props;
    props.sharedFilesystem = true;
    t.net.connect(a.id(), b.id(), props);

    Message bulk;
    bulk.type = MessageType::CommandOutput;
    bulk.source = a.id();
    bulk.destination = b.id();
    bulk.payload.assign(1'000'000, 0);
    t.net.send(bulk);
    t.loop.run();
    // Only the ~96-byte frame crossed the wire.
    EXPECT_LT(t.net.totalStats().bytes, 200u);

    Message control;
    control.type = MessageType::Heartbeat; // not bulk: full size
    control.source = a.id();
    control.destination = b.id();
    control.payload.assign(50, 0);
    t.net.send(control);
    t.loop.run();
    EXPECT_GE(t.net.totalStats().bytes, 96u + 50u);
}

TEST(EventLoop, CancelledTimerNeverFires) {
    EventLoop loop;
    int fired = 0;
    const auto keep = loop.scheduleTimer(1.0, [&] { fired += 1; });
    const auto dead = loop.scheduleTimer(2.0, [&] { fired += 100; });
    EXPECT_TRUE(loop.cancelTimer(dead));
    EXPECT_FALSE(loop.cancelTimer(dead)); // already dead
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(loop.cancelTimer(keep)); // already fired
}

TEST(Backoff, GrowsExponentiallyAndCaps) {
    BackoffPolicy policy{30.0, 2.0, 480.0, 0.0};
    Rng rng(7);
    EXPECT_DOUBLE_EQ(policy.delay(0, rng), 30.0);
    EXPECT_DOUBLE_EQ(policy.delay(1, rng), 60.0);
    EXPECT_DOUBLE_EQ(policy.delay(2, rng), 120.0);
    EXPECT_DOUBLE_EQ(policy.delay(3, rng), 240.0);
    EXPECT_DOUBLE_EQ(policy.delay(4, rng), 480.0);
    EXPECT_DOUBLE_EQ(policy.delay(9, rng), 480.0); // capped
}

TEST(Backoff, JitterStaysInRangeAndDesynchronizes) {
    BackoffPolicy policy{30.0, 2.0, 480.0, 0.25};
    Rng a(1), b(2);
    bool differed = false;
    for (int attempt = 0; attempt < 6; ++attempt) {
        const double da = policy.delay(attempt, a);
        const double db = policy.delay(attempt, b);
        const double base = std::min(480.0, 30.0 * std::pow(2.0, attempt));
        EXPECT_GT(da, base * 0.75 - 1e-9);
        EXPECT_LE(da, base);
        if (std::abs(da - db) > 1e-9) differed = true;
    }
    EXPECT_TRUE(differed);
}

TEST(Overlay, FaultPlanDropsEveryMessageOnLossyLink) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.seed = 42;
    plan.defaultProfile.dropProbability = 1.0;
    t.net.setFaultPlan(plan);

    int delivered = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    for (int i = 0; i < 5; ++i) {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    }
    t.loop.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(t.net.faultStats().dropped, 5u);
    // Dropped messages still consumed the wire.
    EXPECT_EQ(t.net.linkStats(a.id(), b.id()).messages, 5u);
}

TEST(Overlay, FaultPlanDuplicatesDeliverTwice) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.seed = 7;
    FaultProfile lossy;
    lossy.duplicateProbability = 1.0;
    plan.linkProfiles[{std::min(a.id(), b.id()),
                       std::max(a.id(), b.id())}] = lossy;
    t.net.setFaultPlan(plan);

    int delivered = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = a.id();
    msg.destination = b.id();
    t.net.send(msg);
    t.loop.run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(t.net.faultStats().duplicated, 1u);
}

TEST(Overlay, ScheduledLinkCutHealsOnTime) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.cutLink(a.id(), b.id(), /*at=*/10.0, /*heal=*/20.0);
    t.net.setFaultPlan(plan);

    int delivered = 0, dead = 0;
    b.setHandler([&](const Message&) { ++delivered; });
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason) { ++dead; });
    auto sendOne = [&] {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    };
    t.loop.schedule(15.0, sendOne); // during the cut: dead letter
    t.loop.schedule(25.0, sendOne); // after the heal: delivered
    t.loop.run();
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(delivered, 1);
    EXPECT_TRUE(t.net.linkUsable(a.id(), b.id()));
    EXPECT_EQ(t.net.faultStats().linkCuts, 1u);
}

TEST(Overlay, CrashedNodeDeadLettersUntilRestart) {
    TestNet t;
    Node a = t.makeNode("a", 1);
    Node b = t.makeNode("b", 2);
    mutualTrust(a, b);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.crashNode(b.id(), /*at=*/10.0, /*restart=*/20.0);
    t.net.setFaultPlan(plan);

    int delivered = 0;
    std::vector<DeadLetterReason> reasons;
    b.setHandler([&](const Message&) { ++delivered; });
    t.net.setDeadLetterHandler(
        [&](const Message&, DeadLetterReason r) { reasons.push_back(r); });
    auto sendOne = [&] {
        Message msg;
        msg.source = a.id();
        msg.destination = b.id();
        t.net.send(msg);
    };
    t.loop.schedule(15.0, [&] {
        EXPECT_FALSE(t.net.nodeUp(b.id()));
        sendOne();
    });
    t.loop.schedule(25.0, sendOne);
    t.loop.run();
    EXPECT_EQ(delivered, 1);
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_EQ(reasons[0], DeadLetterReason::DestinationDown);
    EXPECT_TRUE(t.net.nodeUp(b.id()));
    EXPECT_EQ(t.net.faultStats().crashes, 1u);
}

TEST(Overlay, RoutesAroundCutLink) {
    // a - b - d and a - c - d: cutting a-b reroutes via c.
    TestNet t;
    Node a = t.makeNode("a", 1), b = t.makeNode("b", 2),
         c = t.makeNode("c", 3), d = t.makeNode("d", 4);
    mutualTrust(a, b);
    mutualTrust(a, c);
    mutualTrust(b, d);
    mutualTrust(c, d);
    t.net.connect(a.id(), b.id(), LinkProperties{0.01, 1e9});
    t.net.connect(b.id(), d.id(), LinkProperties{0.01, 1e9});
    t.net.connect(a.id(), c.id(), LinkProperties{1.0, 1e9});
    t.net.connect(c.id(), d.id(), LinkProperties{1.0, 1e9});

    t.net.cutLink(a.id(), b.id());
    EXPECT_FALSE(t.net.linkUsable(a.id(), b.id()));
    EXPECT_EQ(t.net.nextHop(a.id(), d.id()), c.id());

    int delivered = 0;
    d.setHandler([&](const Message&) { ++delivered; });
    Message msg;
    msg.source = a.id();
    msg.destination = d.id();
    t.net.send(msg);
    t.loop.run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(t.net.linkStats(a.id(), c.id()).messages, 1u);
    EXPECT_EQ(t.net.linkStats(a.id(), b.id()).messages, 0u);
}

TEST(Overlay, TraceHashIsDeterministicUnderSeed) {
    auto runOnce = [](std::uint64_t seed) {
        TestNet t;
        Node a = t.makeNode("a", 1);
        Node b = t.makeNode("b", 2);
        mutualTrust(a, b);
        t.net.connect(a.id(), b.id(), {});
        FaultPlan plan;
        plan.seed = seed;
        plan.defaultProfile.dropProbability = 0.5;
        plan.defaultProfile.duplicateProbability = 0.25;
        t.net.setFaultPlan(plan);
        b.setHandler([](const Message&) {});
        for (int i = 0; i < 20; ++i) {
            Message msg;
            msg.source = a.id();
            msg.destination = b.id();
            msg.id = std::uint64_t(i + 1);
            t.net.send(msg);
        }
        t.loop.run();
        return t.net.traceHash();
    };
    EXPECT_EQ(runOnce(11), runOnce(11));
    EXPECT_NE(runOnce(11), runOnce(12));
}

TEST(Overlay, GoldenTraceHashAcrossBuilds) {
    // The overlay alone, with no MD and no MSM: seeded traffic over a 3x3
    // grid with equal-latency ties and a diagonal that ties a two-hop
    // path, four leaves, chaos on every hop, a link cut, a partition and
    // a crash. The expected hash was recorded before routes were
    // memoised; any change to route choice, tie-breaking or fault-RNG
    // draw order moves it.
    TestNet t;
    std::vector<std::unique_ptr<Node>> nodes;
    for (int i = 0; i < 13; ++i)
        nodes.push_back(std::make_unique<Node>(
            t.net, "n" + std::to_string(i), KeyPair::generate(100 + i)));
    for (auto& a : nodes)
        for (auto& b : nodes)
            if (a != b) a->trust(b->publicKey());
    const auto link = [&](int a, int b, double latency) {
        t.net.connect(nodes[std::size_t(a)]->id(), nodes[std::size_t(b)]->id(),
                      LinkProperties{latency, 1e7});
    };
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
            if (c < 2) link(3 * r + c, 3 * r + c + 1, 0.01);
            if (r < 2) link(3 * r + c, 3 * r + c + 3, 0.01);
        }
    link(0, 4, 0.02);
    link(9, 0, 0.005);
    link(10, 2, 0.005);
    link(11, 6, 0.005);
    link(12, 8, 0.005);

    FaultPlan plan;
    plan.seed = 20111;
    plan.defaultProfile.dropProbability = 0.05;
    plan.defaultProfile.duplicateProbability = 0.05;
    plan.defaultProfile.reorderProbability = 0.1;
    plan.defaultProfile.spikeProbability = 0.02;
    plan.defaultProfile.spikeSeconds = 0.2;
    plan.cutLink(nodes[1]->id(), nodes[4]->id(), 2.0, 5.0);
    // The island's crossing links are cut in (lo, hi) key order, which
    // differs from their connect order: n0-n9 was connected last.
    plan.partition({nodes[0]->id(), nodes[4]->id()}, 4.0, 7.0);
    plan.crashNode(nodes[4]->id(), 6.0, 8.0);
    t.net.setFaultPlan(plan);

    int delivered = 0;
    for (auto& n : nodes) n->setHandler([&](const Message&) { ++delivered; });
    Rng rng(99);
    for (int i = 0; i < 400; ++i) {
        const auto src = NodeId(rng.uniformInt(nodes.size()));
        auto dst = NodeId(rng.uniformInt(nodes.size() - 1));
        if (dst >= src) ++dst;
        const double at = rng.uniform(0.0, 10.0);
        const auto bytes = std::size_t(rng.uniformInt(65));
        t.loop.scheduleAt(at, [&t, src, dst, bytes] {
            Message msg;
            msg.type = MessageType::Heartbeat;
            msg.source = src;
            msg.destination = dst;
            msg.payload.assign(bytes, 0);
            t.net.send(msg);
        });
    }
    t.loop.run();
    EXPECT_EQ(t.net.traceHash(), 0xc87badbcb06574d2ull);
    EXPECT_EQ(delivered, 336);
    EXPECT_EQ(t.net.faultStats().deadLetters, 55u);
}

TEST(Overlay, PartitionHealsOnlyLinksItCut) {
    // a-b crosses the island {a} when the partition fires; a-c is
    // connected mid-partition, so the heal must leave it alone instead of
    // trying to heal a link that was never cut.
    TestNet t;
    Node a = t.makeNode("a", 1), b = t.makeNode("b", 2),
         c = t.makeNode("c", 3);
    mutualTrust(a, b);
    mutualTrust(a, c);
    t.net.connect(a.id(), b.id(), {});
    FaultPlan plan;
    plan.partition({a.id()}, /*at=*/1.0, /*heal=*/3.0);
    t.net.setFaultPlan(plan);

    int delivered = 0;
    c.setHandler([&](const Message&) { ++delivered; });
    t.loop.scheduleAt(2.0, [&] {
        t.net.connect(a.id(), c.id(), {});
        EXPECT_FALSE(t.net.linkUsable(a.id(), b.id()));
        EXPECT_TRUE(t.net.linkUsable(a.id(), c.id()));
        Message msg;
        msg.source = a.id();
        msg.destination = c.id();
        t.net.send(msg);
    });
    EXPECT_NO_THROW(t.loop.run());
    EXPECT_EQ(delivered, 1);
    EXPECT_TRUE(t.net.linkUsable(a.id(), b.id()));
    EXPECT_TRUE(t.net.linkUsable(a.id(), c.id()));
    EXPECT_EQ(t.net.faultStats().linkCuts, 1u);
}

TEST(Overlay, BulkDataClassification) {
    EXPECT_TRUE(isBulkDataMessage(MessageType::CommandOutput));
    EXPECT_TRUE(isBulkDataMessage(MessageType::CheckpointData));
    EXPECT_TRUE(isBulkDataMessage(MessageType::WorkloadAssign));
    EXPECT_FALSE(isBulkDataMessage(MessageType::Heartbeat));
    EXPECT_FALSE(isBulkDataMessage(MessageType::WorkloadRequest));
}

} // namespace
} // namespace cop::net
