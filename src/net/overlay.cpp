#include "net/overlay.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "util/logging.hpp"
#include "util/random.hpp"

namespace cop::net {

namespace {

// Trace event kinds folded into OverlayNetwork::traceHash().
constexpr std::uint64_t kTraceDeliver = 1;
constexpr std::uint64_t kTraceDrop = 2;
constexpr std::uint64_t kTraceDuplicate = 3;
constexpr std::uint64_t kTraceDelay = 4;
constexpr std::uint64_t kTraceDeadLetter = 5;
constexpr std::uint64_t kTraceLinkDown = 6;
constexpr std::uint64_t kTraceLinkUp = 7;
constexpr std::uint64_t kTraceNodeDown = 8;
constexpr std::uint64_t kTraceNodeUp = 9;

constexpr double kUnreached = std::numeric_limits<double>::infinity();

} // namespace

const char* messageTypeName(MessageType t) {
    switch (t) {
    case MessageType::WorkerAnnounce: return "WorkerAnnounce";
    case MessageType::WorkloadRequest: return "WorkloadRequest";
    case MessageType::WorkloadAssign: return "WorkloadAssign";
    case MessageType::Heartbeat: return "Heartbeat";
    case MessageType::CommandOutput: return "CommandOutput";
    case MessageType::CommandFailed: return "CommandFailed";
    case MessageType::CheckpointData: return "CheckpointData";
    case MessageType::WorkerFailed: return "WorkerFailed";
    case MessageType::ProjectData: return "ProjectData";
    case MessageType::NoWorkAvailable: return "NoWorkAvailable";
    case MessageType::ClientRequest: return "ClientRequest";
    case MessageType::ClientResponse: return "ClientResponse";
    case MessageType::Ack: return "Ack";
    case MessageType::LeaseRenew: return "LeaseRenew";
    case MessageType::Batch: return "Batch";
    case MessageType::HeartbeatSummary: return "HeartbeatSummary";
    }
    return "Unknown";
}

bool isBulkDataMessage(MessageType t) {
    switch (t) {
    case MessageType::WorkloadAssign:
    case MessageType::CommandOutput:
    case MessageType::CheckpointData:
    case MessageType::ProjectData:
        return true;
    case MessageType::WorkerAnnounce:
    case MessageType::WorkloadRequest:
    case MessageType::Heartbeat:
    case MessageType::CommandFailed:
    case MessageType::WorkerFailed:
    case MessageType::NoWorkAvailable:
    case MessageType::ClientRequest:
    case MessageType::ClientResponse:
    case MessageType::Ack:
    case MessageType::LeaseRenew:
    case MessageType::Batch:
    case MessageType::HeartbeatSummary:
        return false;
    }
    return false;
}

KeyPair KeyPair::generate(std::uint64_t seed) {
    Rng rng(seed);
    // Public and private halves are independent random words; the "proof"
    // in this toy scheme is just producing the private half.
    return KeyPair{rng.next() | 1, rng.next() | 1};
}

Node::Node(OverlayNetwork& net, std::string name, KeyPair keys)
    : net_(&net), name_(std::move(name)), keys_(keys) {
    id_ = net.registerNode(*this);
}

void Node::deliver(const Message& msg) {
    if (handler_) handler_(msg);
}

OverlayNetwork::OverlayNetwork(EventLoop& loop) : loop_(&loop) {}

NodeId OverlayNetwork::registerNode(Node& node) {
    nodes_.push_back(&node);
    adjacency_.emplace_back();
    downNodes_.push_back(0);
    return NodeId(nodes_.size() - 1);
}

Node& OverlayNetwork::node(NodeId id) {
    COP_REQUIRE(id >= 0 && std::size_t(id) < nodes_.size(), "bad node id");
    return *nodes_[std::size_t(id)];
}

const Node& OverlayNetwork::node(NodeId id) const {
    COP_REQUIRE(id >= 0 && std::size_t(id) < nodes_.size(), "bad node id");
    return *nodes_[std::size_t(id)];
}

void OverlayNetwork::connect(NodeId a, NodeId b, LinkProperties props) {
    COP_REQUIRE(a != b, "cannot connect a node to itself");
    Node& na = node(a);
    Node& nb = node(b);
    // Mutual authentication: both ends must have exchanged public keys
    // beforehand (paper §2.2).
    if (!na.trusts(nb.publicKey()) || !nb.trusts(na.publicKey()))
        throw InvalidArgument("connection refused: keys not mutually trusted (" +
                              na.name() + " <-> " + nb.name() + ")");
    COP_REQUIRE(props.latency >= 0.0 && props.bandwidth > 0.0,
                "invalid link properties");
    COP_REQUIRE(findLink(a, b) == kNoLink, "link already exists");
    const auto id = LinkId(links_.size());
    links_.push_back(Link{std::min(a, b), std::max(a, b), props, {}, 0});
    adjacency_[std::size_t(a)].push_back({b, id});
    adjacency_[std::size_t(b)].push_back({a, id});
    routes_.clear();
}

OverlayNetwork::LinkId OverlayNetwork::findLink(NodeId a, NodeId b) const {
    const auto n = adjacency_.size();
    if (a < 0 || b < 0 || std::size_t(a) >= n || std::size_t(b) >= n)
        return kNoLink;
    // Scan the shorter list: a worker's single uplink, not its hub's fleet.
    const auto& la = adjacency_[std::size_t(a)];
    const auto& lb = adjacency_[std::size_t(b)];
    const bool fromA = la.size() <= lb.size();
    const NodeId peer = fromA ? b : a;
    for (const Adjacent& e : fromA ? la : lb)
        if (e.peer == peer) return e.link;
    return kNoLink;
}

bool OverlayNetwork::connected(NodeId a, NodeId b) const {
    return findLink(a, b) != kNoLink;
}

bool OverlayNetwork::nodeUp(NodeId id) const {
    return id < 0 || std::size_t(id) >= downNodes_.size() ||
           downNodes_[std::size_t(id)] == 0;
}

bool OverlayNetwork::linkUsable(NodeId a, NodeId b) const {
    const LinkId id = findLink(a, b);
    return id != kNoLink && links_[id].cuts == 0 && nodeUp(a) && nodeUp(b);
}

NodeId OverlayNetwork::nextHop(NodeId from, NodeId to) const {
    if (from == to) return to;
    if (!nodeUp(from) || !nodeUp(to)) return kInvalidNode;
    return route(from, to).hop;
}

OverlayNetwork::Route OverlayNetwork::route(NodeId from, NodeId to) const {
    // The overlay is small and changes rarely while traffic crosses it on
    // every hop, so each queried pair is searched once per topology.
    const std::uint64_t pair =
        (std::uint64_t(std::uint32_t(from)) << 32) | std::uint32_t(to);
    const auto [it, miss] = routes_.try_emplace(pair);
    if (miss) it->second = searchRoute(from, to);
    return it->second;
}

OverlayNetwork::Route OverlayNetwork::searchRoute(NodeId from,
                                                  NodeId to) const {
    // Dijkstra from `from` by total latency over usable links, stopping
    // when `to` settles; the route is the first hop of the best path. Pop
    // order is (dist, NodeId) and neighbours relax in connect order with a
    // strict `<`, so equal-latency ties always resolve the same way —
    // routes, and with them traceHash(), depend on it.
    RouteSearch& s = search_;
    if (s.dist.size() < nodes_.size()) {
        s.dist.resize(nodes_.size(), kUnreached);
        s.first.resize(nodes_.size());
    }
    const auto later = std::greater<std::pair<double, NodeId>>{};
    s.dist[std::size_t(from)] = 0.0;
    s.touched.push_back(from);
    s.heap.push_back({0.0, from});
    while (!s.heap.empty()) {
        std::pop_heap(s.heap.begin(), s.heap.end(), later);
        const auto [d, u] = s.heap.back();
        s.heap.pop_back();
        if (d > s.dist[std::size_t(u)]) continue;
        if (u == to) break;
        // `u` is up: it is `from` or was reached over a usable link.
        for (const Adjacent& e : adjacency_[std::size_t(u)]) {
            const Link& link = links_[e.link];
            if (link.cuts > 0 || !nodeUp(e.peer)) continue;
            const double nd = d + link.props.latency;
            double& best = s.dist[std::size_t(e.peer)];
            if (nd < best) {
                if (best == kUnreached) s.touched.push_back(e.peer);
                best = nd;
                s.first[std::size_t(e.peer)] =
                    u == from ? Route{e.peer, e.link}
                              : s.first[std::size_t(u)];
                s.heap.push_back({nd, e.peer});
                std::push_heap(s.heap.begin(), s.heap.end(), later);
            }
        }
    }
    const Route found = s.first[std::size_t(to)];
    for (NodeId v : s.touched) {
        s.dist[std::size_t(v)] = kUnreached;
        s.first[std::size_t(v)] = Route{};
    }
    s.touched.clear();
    s.heap.clear();
    return found;
}

void OverlayNetwork::send(Message msg) {
    COP_REQUIRE(msg.source != kInvalidNode && msg.destination != kInvalidNode,
                "message needs source and destination");
    if (msg.id == 0) msg.id = nextMessageId();
    const NodeId origin = msg.source;
    forward(std::move(msg), origin);
}

void OverlayNetwork::forward(Message msg, NodeId at) {
    if (!nodeUp(at)) {
        // The node holding the message crashed while it was in flight.
        deadLetter(msg, DeadLetterReason::NodeDown);
        return;
    }
    if (at == msg.destination) {
        traceEvent(kTraceDeliver, msg.id, std::uint64_t(at),
                   std::uint64_t(msg.type));
        node(at).deliver(msg);
        return;
    }
    if (!nodeUp(msg.destination)) {
        deadLetter(msg, DeadLetterReason::DestinationDown);
        return;
    }
    const Route next = route(at, msg.destination);
    if (next.hop == kInvalidNode) {
        deadLetter(msg, DeadLetterReason::NoRoute);
        return;
    }
    const NodeId hop = next.hop;
    Link& link = links_[next.link];
    // On shared-filesystem links, bulk payloads are exchanged through the
    // filesystem; only the framing crosses the network. Batch frames carry
    // their bulk sub-payload byte count explicitly so coalescing does not
    // forfeit the out-of-band optimization.
    const std::size_t elidable =
        isBulkDataMessage(msg.type)
            ? msg.payload.size()
            : std::min(msg.bulkBytes, msg.payload.size());
    const std::size_t wireBytes = link.props.sharedFilesystem
                                      ? (msg.wireSize() - elidable)
                                      : msg.wireSize();
    const auto account = [&link, &msg](std::size_t bytes) {
        link.stats.messages += 1;
        link.stats.bytes += bytes;
        if (msg.batchCount > 0) {
            link.stats.batches += 1;
            link.stats.batchedEnvelopes += msg.batchCount;
        } else {
            link.stats.singletons += 1;
        }
    };
    // Per-hop chaos. Draws happen in deterministic event-loop order, so a
    // given FaultPlan seed yields the same decisions run after run.
    int copies = 1;
    double extraDelay[2] = {0.0, 0.0};
    if (planActive_) {
        const FaultProfile& prof = profileFor(link);
        if (prof.active()) {
            if (prof.dropProbability > 0.0 &&
                faultRng_.uniform() < prof.dropProbability) {
                // The message consumed the wire before vanishing.
                account(wireBytes);
                ++faultStats_.dropped;
                traceEvent(kTraceDrop, msg.id, std::uint64_t(at),
                           std::uint64_t(hop));
                return;
            }
            if (prof.duplicateProbability > 0.0 &&
                faultRng_.uniform() < prof.duplicateProbability) {
                copies = 2;
                ++faultStats_.duplicated;
                traceEvent(kTraceDuplicate, msg.id, std::uint64_t(at),
                           std::uint64_t(hop));
            }
            for (int c = 0; c < copies; ++c) {
                double extra = 0.0;
                if (prof.reorderProbability > 0.0 &&
                    faultRng_.uniform() < prof.reorderProbability)
                    extra += prof.reorderWindow * faultRng_.uniform();
                if (prof.spikeProbability > 0.0 &&
                    faultRng_.uniform() < prof.spikeProbability)
                    extra += prof.spikeSeconds * faultRng_.uniform();
                if (extra > 0.0) {
                    ++faultStats_.delayed;
                    traceEvent(kTraceDelay, msg.id, std::uint64_t(at),
                               std::bit_cast<std::uint64_t>(extra));
                }
                extraDelay[c] = extra;
            }
        }
    }
    for (int c = 0; c < copies; ++c) {
        account(wireBytes);
        const double delay = link.props.transferTime(wireBytes) + extraDelay[c];
        Message copy = (c + 1 == copies) ? std::move(msg) : msg;
        loop_->schedule(delay, [this, m = std::move(copy), hop]() mutable {
            forward(std::move(m), hop);
        });
    }
}

void OverlayNetwork::deadLetter(const Message& msg, DeadLetterReason reason) {
    ++faultStats_.deadLetters;
    traceEvent(kTraceDeadLetter, msg.id, std::uint64_t(msg.destination),
               std::uint64_t(reason));
    if (deadLetterHandler_) deadLetterHandler_(msg, reason);
}

const FaultProfile& OverlayNetwork::profileFor(const Link& link) const {
    auto it = plan_.linkProfiles.find({link.lo, link.hi});
    return it != plan_.linkProfiles.end() ? it->second : plan_.defaultProfile;
}

void OverlayNetwork::setFaultPlan(const FaultPlan& plan) {
    plan_ = plan;
    planActive_ = true;
    faultRng_ = Rng(plan_.seed);
    for (const auto& cut : plan_.cuts) {
        loop_->scheduleAt(cut.at, [this, cut] { cutLink(cut.a, cut.b); });
        if (cut.heal >= cut.at)
            loop_->scheduleAt(cut.heal, [this, cut] { healLink(cut.a, cut.b); });
    }
    for (const auto& part : plan_.partitions) {
        // The heal restores exactly the links the partition cut, not
        // whatever crosses the island by then: a link connected
        // mid-partition was never cut.
        auto cut = std::make_shared<std::vector<LinkId>>();
        loop_->scheduleAt(part.at, [this, cut, island = part.island] {
            *cut = crossingLinks(island);
            for (LinkId id : *cut) cutLink(links_[id].lo, links_[id].hi);
        });
        if (part.heal >= part.at)
            loop_->scheduleAt(part.heal, [this, cut] {
                for (LinkId id : *cut) healLink(links_[id].lo, links_[id].hi);
            });
    }
    for (const auto& crash : plan_.crashes) {
        loop_->scheduleAt(crash.at, [this, crash] { crashNode(crash.node); });
        if (crash.restart >= crash.at)
            loop_->scheduleAt(crash.restart,
                              [this, crash] { restoreNode(crash.node); });
    }
}

void OverlayNetwork::cutLink(NodeId a, NodeId b) {
    const LinkId id = findLink(a, b);
    COP_REQUIRE(id != kNoLink, "cannot cut a link that does not exist");
    ++links_[id].cuts;
    routes_.clear();
    ++faultStats_.linkCuts;
    traceEvent(kTraceLinkDown, std::uint64_t(a), std::uint64_t(b), 0);
}

void OverlayNetwork::healLink(NodeId a, NodeId b) {
    const LinkId id = findLink(a, b);
    COP_REQUIRE(id != kNoLink && links_[id].cuts > 0, "link is not cut");
    --links_[id].cuts;
    routes_.clear();
    traceEvent(kTraceLinkUp, std::uint64_t(a), std::uint64_t(b), 0);
}

std::vector<OverlayNetwork::LinkId> OverlayNetwork::crossingLinks(
    const std::vector<NodeId>& island) const {
    const std::set<NodeId> inIsland(island.begin(), island.end());
    std::vector<LinkId> crossing;
    for (LinkId id = 0; id < links_.size(); ++id)
        if (inIsland.count(links_[id].lo) != inIsland.count(links_[id].hi))
            crossing.push_back(id);
    // Each cut and heal folds a trace event, so traceHash() depends on
    // this order: (lo, hi) key order, not connect order.
    std::sort(crossing.begin(), crossing.end(), [this](LinkId x, LinkId y) {
        return std::pair(links_[x].lo, links_[x].hi) <
               std::pair(links_[y].lo, links_[y].hi);
    });
    return crossing;
}

void OverlayNetwork::crashNode(NodeId id) {
    COP_REQUIRE(id >= 0 && std::size_t(id) < nodes_.size(), "bad node id");
    ++downNodes_[std::size_t(id)];
    routes_.clear();
    ++faultStats_.crashes;
    traceEvent(kTraceNodeDown, std::uint64_t(id), 0, 0);
}

void OverlayNetwork::restoreNode(NodeId id) {
    COP_REQUIRE(!nodeUp(id), "node is not down");
    --downNodes_[std::size_t(id)];
    routes_.clear();
    traceEvent(kTraceNodeUp, std::uint64_t(id), 0, 0);
}

void OverlayNetwork::traceEvent(std::uint64_t kind, std::uint64_t a,
                                std::uint64_t b, std::uint64_t c) {
    const auto mix = [this](std::uint64_t v) {
        traceHash_ ^= v;
        traceHash_ *= 0x100000001b3ull; // FNV-1a prime
    };
    mix(kind);
    mix(std::bit_cast<std::uint64_t>(loop_->now()));
    mix(a);
    mix(b);
    mix(c);
}

const LinkStats& OverlayNetwork::linkStats(NodeId a, NodeId b) const {
    const LinkId id = findLink(a, b);
    COP_REQUIRE(id != kNoLink, "no such link");
    return links_[id].stats;
}

namespace {

void accumulate(LinkStats& total, const LinkStats& s) {
    total.messages += s.messages;
    total.bytes += s.bytes;
    total.singletons += s.singletons;
    total.batches += s.batches;
    total.batchedEnvelopes += s.batchedEnvelopes;
}

} // namespace

LinkStats OverlayNetwork::nodeStats(NodeId id) const {
    LinkStats total;
    if (id >= 0 && std::size_t(id) < adjacency_.size())
        for (const Adjacent& e : adjacency_[std::size_t(id)])
            accumulate(total, links_[e.link].stats);
    return total;
}

LinkStats OverlayNetwork::totalStats() const {
    LinkStats total;
    for (const Link& link : links_) accumulate(total, link.stats);
    return total;
}

} // namespace cop::net
