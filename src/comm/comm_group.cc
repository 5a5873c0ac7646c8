#include "comm/comm_group.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/logging.hh"
#include "sim/pdes/pdes_engine.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace comm
{

const char *
collectiveName(Collective c)
{
    switch (c) {
      case Collective::allReduce:
        return "all_reduce";
      case Collective::allGather:
        return "all_gather";
      case Collective::reduceScatter:
        return "reduce_scatter";
      case Collective::broadcast:
        return "broadcast";
      case Collective::allToAll:
        return "all_to_all";
      case Collective::sendRecv:
        return "send_recv";
    }
    panic("bad collective kind");
}

const char *
algorithmName(Algorithm a)
{
    switch (a) {
      case Algorithm::automatic:
        return "auto";
      case Algorithm::ring:
        return "ring";
      case Algorithm::direct:
        return "direct";
    }
    panic("bad algorithm");
}

double
CollectiveOp::algoBandwidth() const
{
    const Tick fin = finishTick();
    if (fin <= start_)
        return 0.0;
    return static_cast<double>(data_bytes_) /
           secondsFromTicks(fin - start_);
}

CommGroup::CommGroup(SimObject *parent, const std::string &name,
                     fabric::Network *net,
                     std::vector<fabric::NodeId> ranks, EventQueue *eq,
                     const CommParams &params)
    : SimObject(parent, name, eq),
      ops_started(this, "ops_started", "collectives launched"),
      ops_completed(this, "ops_completed", "collectives finished"),
      allreduce_bytes(this, "allreduce_bytes",
                      "payload bytes all-reduced"),
      allgather_bytes(this, "allgather_bytes",
                      "payload bytes all-gathered"),
      reduce_scatter_bytes(this, "reduce_scatter_bytes",
                           "payload bytes reduce-scattered"),
      broadcast_bytes(this, "broadcast_bytes",
                      "payload bytes broadcast"),
      all_to_all_bytes(this, "all_to_all_bytes",
                       "payload bytes exchanged all-to-all"),
      sendrecv_bytes(this, "sendrecv_bytes",
                     "payload bytes sent point-to-point"),
      link_bytes(this, "link_bytes",
                 "bytes x hops placed on fabric links"),
      chunk_retries(this, "chunk_retries",
                    "chunk transfers retried after transient faults"),
      retry_wait_ticks(this, "retry_wait_ticks",
                       "total backoff ticks spent before retries"),
      retry_latency(this, "retry_latency",
                    "backoff ticks per chunk retry"),
      algo_bw_gbps(this, "algo_bw_gbps",
                   "achieved algorithmic bandwidth per op, GB/s"),
      avg_link_busy(this, "avg_link_busy",
                    "mean busy fraction over the group's links",
                    [this] { return avgLinkUtilization(); }),
      max_link_busy(this, "max_link_busy",
                    "busy fraction of the group's busiest link",
                    [this] { return maxLinkUtilization(); }),
      net_(net),
      ranks_(std::move(ranks)),
      params_(params)
{
    if (!net_)
        fatal("CommGroup '", name, "': null fabric network");
    if (!eventq())
        fatal("CommGroup '", name, "': no event queue (pass one "
              "explicitly; collectives are event-driven)");
    if (ranks_.empty())
        fatal("CommGroup '", name, "': no ranks");
    if (params_.chunk_bytes == 0)
        fatal("CommGroup '", name, "': chunk_bytes must be nonzero");
    if (params_.retry_timeout == 0)
        fatal("CommGroup '", name, "': retry_timeout must be nonzero");
    if (params_.backoff_base < 1.0)
        fatal("CommGroup '", name, "': backoff_base ",
              params_.backoff_base, " must be >= 1");
    // Bucket the retry-latency histogram over the full backoff
    // range: [first delay, delay after the last permitted retry).
    retry_latency.init(0.0,
                       static_cast<double>(
                           backoffTicks(params_.max_retries + 1)),
                       8);
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        if (ranks_[i] >= net_->numNodes())
            fatal("CommGroup '", name, "': rank ", i,
                  " maps to unknown fabric node ", ranks_[i]);
        for (std::size_t j = i + 1; j < ranks_.size(); ++j) {
            if (ranks_[i] == ranks_[j])
                fatal("CommGroup '", name, "': ranks ", i, " and ", j,
                      " share fabric node '",
                      net_->nodeName(ranks_[i]), "'");
        }
    }
    // Resolve every rank pair's route to Link pointers once, up
    // front, and collect every directed link any pair routes over in
    // a deterministic first-encounter order. Fully-connected groups
    // use exactly one link per ordered pair; multi-hop routes can
    // only share links, so this is an upper bound. The cached
    // LinkRoute pointers are what runTask() replays per chunk;
    // routeFor() re-resolves them if the fabric reroutes.
    pair_routes_.assign(ranks_.size() * ranks_.size(), nullptr);
    pair_epochs_.assign(ranks_.size() * ranks_.size(),
                        net_->routeEpoch());
    links_.reserve(ranks_.size() * (ranks_.size() - 1));
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        for (std::size_t j = 0; j < ranks_.size(); ++j) {
            if (i == j)
                continue;
            const fabric::LinkRoute &r =
                net_->linkRoute(ranks_[i], ranks_[j]);
            pair_routes_[i * ranks_.size() + j] = &r;
            for (fabric::Link *l : r.links) {
                if (std::find(links_.begin(), links_.end(), l) ==
                    links_.end()) {
                    links_.push_back(l);
                }
            }
        }
    }
}

bool
CommGroup::fullyConnected() const
{
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        for (std::size_t j = i + 1; j < ranks_.size(); ++j) {
            if (net_->hopCount(ranks_[i], ranks_[j]) != 1)
                return false;
        }
    }
    return true;
}

Algorithm
CommGroup::choose(Collective coll, std::uint64_t bytes) const
{
    // With one or two ranks ring and direct coincide; point-to-point
    // is always a direct route.
    if (numRanks() <= 2 || coll == Collective::sendRecv)
        return Algorithm::direct;
    // Small payloads are latency-bound: direct has the fewest
    // serialized steps (2 for all-reduce vs 2(N-1) for ring).
    if (bytes <= params_.direct_threshold)
        return Algorithm::direct;
    // Large payloads: with a dedicated link per pair (Fig. 18),
    // direct drives N-1 links per rank in parallel and beats the
    // ring's single-neighbor stream. On sparser topologies direct
    // routes collide on shared links, so pipeline around the ring.
    return fullyConnected() ? Algorithm::direct : Algorithm::ring;
}

CommGroup::ChunkSpan
CommGroup::chunkSpanOf(std::uint64_t bytes) const
{
    if (bytes == 0)
        return {};
    const std::uint64_t cb = params_.chunk_bytes;
    const std::uint64_t count = (bytes + cb - 1) / cb;
    return {count, bytes - (count - 1) * cb};
}

std::uint64_t
CommGroup::chunkCount(std::uint64_t bytes) const
{
    return bytes == 0 ? std::uint64_t{0}
                      : (bytes + params_.chunk_bytes - 1) /
                            params_.chunk_bytes;
}

std::uint64_t
CommGroup::shardedChunkCount(std::uint64_t bytes) const
{
    const unsigned n = numRanks();
    const std::uint64_t q = bytes / n;
    const std::uint64_t rem = bytes % n;
    return rem * chunkCount(q + 1) + (n - rem) * chunkCount(q);
}

std::uint64_t
CommGroup::taskCount(Collective kind, std::uint64_t bytes) const
{
    const unsigned n = numRanks();
    if (n < 2 || bytes == 0)
        return 0;
    switch (kind) {
      case Collective::allReduce:
      case Collective::allGather:
      case Collective::reduceScatter: {
        // Ring and direct schedules place the same number of
        // transfers: steps (2(N-1) for all-reduce, N-1 otherwise)
        // per chunk of each shard.
        const std::uint64_t steps =
            kind == Collective::allReduce ? 2 * (n - 1) : n - 1;
        return steps * shardedChunkCount(bytes);
      }
      case Collective::broadcast:
        return static_cast<std::uint64_t>(n - 1) * chunkCount(bytes);
      case Collective::allToAll:
        return static_cast<std::uint64_t>(n) * (n - 1) *
               chunkCount(bytes);
      case Collective::sendRecv:
        return chunkCount(bytes);
    }
    panic("bad collective kind");
}

std::uint32_t
CommGroup::addTask(CollectiveOp &op, unsigned src_rank,
                   unsigned dst_rank, std::uint64_t bytes,
                   const std::uint32_t *deps, std::uint32_t ndeps)
{
    const auto idx = static_cast<std::uint32_t>(op.tasks_.size());
    CollectiveOp::Task t;
    t.src = ranks_[src_rank];
    t.dst = ranks_[dst_rank];
    t.bytes = bytes;
    t.deps = ndeps;
    t.route_slot = src_rank * numRanks() + dst_rank;
    op.tasks_.push_back(t);
    for (std::uint32_t k = 0; k < ndeps; ++k)
        edge_scratch_.emplace_back(deps[k], idx);
    return idx;
}

void
CommGroup::finalizeDag(CollectiveOp &op)
{
    op.dag_.clear();
    op.dag_.resize(edge_scratch_.size());
    for (const auto &e : edge_scratch_)
        ++op.tasks_[e.first].dep_cnt;
    std::uint32_t off = 0;
    for (auto &t : op.tasks_) {
        t.dep_off = off;
        off += t.dep_cnt;
        t.dep_cnt = 0;      // becomes the fill cursor below
    }
    // Stable fill: edges were recorded in addTask order, so each
    // task's dependents land in the same order the old per-Task
    // vectors held them.
    for (const auto &[from, to] : edge_scratch_) {
        CollectiveOp::Task &src = op.tasks_[from];
        op.dag_[src.dep_off + src.dep_cnt++] = to;
    }
    edge_scratch_.clear();
}

const fabric::LinkRoute &
CommGroup::routeFor(std::uint32_t slot)
{
    // A topology mutation (killLink and friends) destroys the
    // network's LinkRoute storage, so a cached pointer is stale the
    // moment the epoch moves — re-resolve on demand, which also
    // recomputes paths around dead links. Staleness is tracked per
    // slot (not one group-wide epoch flushing every slot at once):
    // under PDES each slot belongs to its source rank's worker
    // group, and a group may only touch its own slots.
    const std::uint64_t epoch = net_->routeEpoch();
    const fabric::LinkRoute *&r = pair_routes_[slot];
    if (!r || pair_epochs_[slot] != epoch) {
        const unsigned n = numRanks();
        r = &net_->linkRoute(ranks_[slot / n], ranks_[slot % n]);
        pair_epochs_[slot] = epoch;
    }
    return *r;
}

void
CommGroup::buildRing(CollectiveOp &op, std::uint64_t bytes,
                     unsigned root)
{
    const unsigned n = numRanks();
    if (n < 2 || bytes == 0)
        return;
    op.tasks_.reserve(op.tasks_.size() + taskCount(op.kind_, bytes));
    const std::uint64_t cb = params_.chunk_bytes;

    switch (op.kind_) {
      case Collective::allReduce:
      case Collective::allGather:
      case Collective::reduceScatter: {
        // Shard the buffer; shard s starts on rank s and travels the
        // ring. All-reduce = reduce-scatter pass plus all-gather
        // pass: 2(N-1) hops; the single-pass collectives take N-1.
        const unsigned steps = op.kind_ == Collective::allReduce
                                   ? 2 * (n - 1)
                                   : n - 1;
        // Each chunk is a chain of `steps` tasks: steps - 1 edges.
        edge_scratch_.reserve(
            (steps - 1) * shardedChunkCount(bytes));
        const std::uint64_t q = bytes / n;
        const std::uint64_t rem = bytes % n;
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k) {
                const std::uint64_t c =
                    k + 1 == span.count ? span.last : cb;
                std::uint32_t prev = 0;
                for (unsigned i = 0; i < steps; ++i) {
                    const unsigned src = (s + i) % n;
                    const unsigned dst = (s + i + 1) % n;
                    prev = addTask(op, src, dst, c,
                                   i == 0 ? nullptr : &prev,
                                   i == 0 ? 0 : 1);
                }
            }
        }
        break;
      }
      case Collective::broadcast: {
        // Chunks pipeline from the root around the ring.
        const ChunkSpan span = chunkSpanOf(bytes);
        if (n > 2)
            edge_scratch_.reserve((n - 2) * span.count);
        for (std::uint64_t k = 0; k < span.count; ++k) {
            const std::uint64_t c =
                k + 1 == span.count ? span.last : cb;
            std::uint32_t prev = 0;
            for (unsigned i = 0; i + 1 < n; ++i) {
                const unsigned src = (root + i) % n;
                const unsigned dst = (root + i + 1) % n;
                prev = addTask(op, src, dst, c,
                               i == 0 ? nullptr : &prev,
                               i == 0 ? 0 : 1);
            }
        }
        break;
      }
      case Collective::allToAll: {
        // Pairwise-exchange rounds: in round i every rank sends its
        // block for rank r+i. Rounds are chained per sender, so the
        // schedule keeps the round structure of the ring variant.
        const ChunkSpan span = chunkSpanOf(bytes);
        if (n > 2)
            edge_scratch_.reserve(n * span.count * (n - 2));
        for (unsigned r = 0; r < n; ++r) {
            prev_scratch_.assign(span.count, 0);
            for (unsigned i = 1; i < n; ++i) {
                for (std::uint64_t k = 0; k < span.count; ++k) {
                    const std::uint64_t c =
                        k + 1 == span.count ? span.last : cb;
                    prev_scratch_[k] =
                        addTask(op, r, (r + i) % n, c,
                                i == 1 ? nullptr : &prev_scratch_[k],
                                i == 1 ? 0 : 1);
                }
            }
        }
        break;
      }
      case Collective::sendRecv:
        panic("sendRecv has no ring schedule");
    }
}

void
CommGroup::buildDirect(CollectiveOp &op, std::uint64_t bytes,
                       unsigned root)
{
    const unsigned n = numRanks();
    if (n < 2 || bytes == 0)
        return;
    op.tasks_.reserve(op.tasks_.size() + taskCount(op.kind_, bytes));
    const std::uint64_t cb = params_.chunk_bytes;
    const std::uint64_t q = bytes / n;
    const std::uint64_t rem = bytes % n;

    switch (op.kind_) {
      case Collective::allReduce: {
        // Phase 1 (reduce-scatter): every rank sends its piece of
        // shard s straight to rank s. Phase 2 (all-gather): rank s
        // returns the reduced shard to everyone; per chunk, phase 2
        // waits on all of that chunk's phase-1 arrivals.
        edge_scratch_.reserve(shardedChunkCount(bytes) *
                              (n - 1) * (n - 1));
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k) {
                const std::uint64_t c =
                    k + 1 == span.count ? span.last : cb;
                id_scratch_.clear();
                for (unsigned r = 0; r < n; ++r) {
                    if (r != s) {
                        id_scratch_.push_back(
                            addTask(op, r, s, c, nullptr, 0));
                    }
                }
                for (unsigned d = 0; d < n; ++d) {
                    if (d != s) {
                        addTask(op, s, d, c, id_scratch_.data(),
                                static_cast<std::uint32_t>(
                                    id_scratch_.size()));
                    }
                }
            }
        }
        break;
      }
      case Collective::allGather: {
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k) {
                const std::uint64_t c =
                    k + 1 == span.count ? span.last : cb;
                for (unsigned d = 0; d < n; ++d) {
                    if (d != s)
                        addTask(op, s, d, c, nullptr, 0);
                }
            }
        }
        break;
      }
      case Collective::reduceScatter: {
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k) {
                const std::uint64_t c =
                    k + 1 == span.count ? span.last : cb;
                for (unsigned r = 0; r < n; ++r) {
                    if (r != s)
                        addTask(op, r, s, c, nullptr, 0);
                }
            }
        }
        break;
      }
      case Collective::broadcast: {
        const ChunkSpan span = chunkSpanOf(bytes);
        for (std::uint64_t k = 0; k < span.count; ++k) {
            const std::uint64_t c =
                k + 1 == span.count ? span.last : cb;
            for (unsigned d = 0; d < n; ++d) {
                if (d != root)
                    addTask(op, root, d, c, nullptr, 0);
            }
        }
        break;
      }
      case Collective::allToAll: {
        const ChunkSpan span = chunkSpanOf(bytes);
        for (unsigned r = 0; r < n; ++r) {
            for (unsigned d = 0; d < n; ++d) {
                if (d == r)
                    continue;
                for (std::uint64_t k = 0; k < span.count; ++k) {
                    const std::uint64_t c =
                        k + 1 == span.count ? span.last : cb;
                    addTask(op, r, d, c, nullptr, 0);
                }
            }
        }
        break;
      }
      case Collective::sendRecv:
        panic("sendRecv is built by sendRecv()");
    }
}

stats::Scalar &
CommGroup::bytesCounter(Collective c)
{
    switch (c) {
      case Collective::allReduce:
        return allreduce_bytes;
      case Collective::allGather:
        return allgather_bytes;
      case Collective::reduceScatter:
        return reduce_scatter_bytes;
      case Collective::broadcast:
        return broadcast_bytes;
      case Collective::allToAll:
        return all_to_all_bytes;
      case Collective::sendRecv:
        return sendrecv_bytes;
    }
    panic("bad collective kind");
}

OpHandle
CommGroup::start(Tick when, OpHandle op)
{
    finalizeDag(*op);
    op->start_ = std::max(when, eventq()->curTick());
    op->finish_ = op->start_;
    op->pending_ = op->tasks_.size();
    op->started_ = true;

    ++ops_started;
    op->id_ = static_cast<unsigned>(ops_started.value());
    bytesCounter(op->kind_) += static_cast<double>(op->data_bytes_);

    if (op->tasks_.empty()) {
        completeOp(*op);
        return op;
    }
    for (auto &t : op->tasks_)
        t.ready = op->start_;
    // Pre-size the scheduling heap for the op's worst-case fan-out
    // (every task scheduled at once, e.g. a dependency-free direct
    // schedule) so the burst below never grows it incrementally.
    eventq()->reserve(eventq()->size() + op->tasks_.size());
    // Retire finished handles here as well as in waitAll(), so
    // event-driven callers that never block (the serving engine)
    // keep outstanding_ bounded by the ops actually in flight.
    // retired_ rather than done(): under PDES completeOp() runs as
    // a deferred coordinator event after pending_ hits zero, and an
    // op isn't finished until its stats are sampled and its
    // completion callback has fired.
    std::erase_if(outstanding_,
                  [](const OpHandle &o) { return o->retired_; });
    outstanding_.push_back(op);
    for (std::uint32_t i = 0; i < op->tasks_.size(); ++i) {
        if (op->tasks_[i].deps == 0)
            scheduleTask(op, i);
    }
    return op;
}

EventQueue *
CommGroup::execQueue(const CollectiveOp::Task &t)
{
    if (!engine_)
        return eventq();
    return engine_->queueForDomain(net_->nodeDomain(t.src));
}

void
CommGroup::scheduleTask(const OpHandle &op, std::uint32_t idx)
{
    // Pool fast path: the capture (this, OpHandle, idx) fits a
    // recycled slot, so per-chunk scheduling allocates nothing in
    // steady state. Under PDES the event goes to the partition
    // queue of the chunk's source domain; callers only reach here
    // from contexts allowed to touch that queue (the coordinator
    // with workers parked, the owning group's worker, or a mailbox
    // drain).
    execQueue(op->tasks_[idx])
        ->scheduleCallback(op->tasks_[idx].ready,
                           [this, op, idx] { runTask(op, idx); });
}

void
CommGroup::setChunkFaultHook(ChunkFaultHook hook)
{
    fault_hook_ = std::move(hook);
}

void
CommGroup::setChunkFaultSink(std::function<void(std::uint64_t)> sink)
{
    fault_sink_ = std::move(sink);
}

void
CommGroup::attachPdes(pdes::PdesEngine *engine)
{
    std::erase_if(outstanding_,
                  [](const OpHandle &o) { return o->retired_; });
    if (!outstanding_.empty()) {
        fatal("CommGroup '", name(), "': attachPdes with ",
              outstanding_.size(), " collectives in flight");
    }
    engine_ = engine;
    shards_.clear();
    if (!engine_)
        return;
    shards_.resize(engine_->partitions());
    // Declare every ordered rank pair: the engine derives the
    // lookahead table and the direct-link ownership check from them.
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        for (std::size_t j = 0; j < ranks_.size(); ++j) {
            if (i != j)
                engine_->declareTraffic(ranks_[i], ranks_[j]);
        }
    }
    engine_->addFlushHook([this] { flushShards(); });
}

void
CommGroup::flushShards()
{
    for (PdesShard &s : shards_) {
        chunk_retries += static_cast<double>(s.chunk_retries);
        retry_wait_ticks += static_cast<double>(s.retry_wait_ticks);
        for (const double v : s.retry_samples)
            retry_latency.sample(v);
        link_bytes += static_cast<double>(s.link_bytes);
        if (s.send.messages != 0) {
            net_->messages += static_cast<double>(s.send.messages);
            net_->total_hops += static_cast<double>(s.send.hops);
        }
        if (fault_sink_ && s.fault_hits != 0)
            fault_sink_(s.fault_hits);
        s.chunk_retries = 0;
        s.retry_wait_ticks = 0;
        s.link_bytes = 0;
        s.fault_hits = 0;
        s.retry_samples.clear();
        s.send = fabric::Network::SendCounters{};
    }
}

Tick
CommGroup::backoffTicks(unsigned attempt) const
{
    // Saturating: retry policies with a large max_retries or a steep
    // backoff_base push retry_timeout * base^(attempt-1) past the
    // Tick range, and the unchecked double -> Tick cast of such a
    // value is undefined behavior. Any backoff at or beyond
    // maxBackoff already outlives every simulation, so clamp there.
    double d = static_cast<double>(params_.retry_timeout);
    for (unsigned i = 1; i < attempt; ++i) {
        d *= params_.backoff_base;
        if (d >= static_cast<double>(maxBackoff))
            return maxBackoff;
    }
    if (d >= static_cast<double>(maxBackoff))
        return maxBackoff;
    return static_cast<Tick>(d);
}

void
CommGroup::runTask(const OpHandle &op, std::uint32_t idx)
{
    CollectiveOp::Task &t = op->tasks_[idx];
    // The executing queue: the partition queue owning t.src's domain
    // under PDES, the group's serial queue otherwise. my_dom < 0
    // means coordinator context (workers parked), where everything
    // may be touched directly.
    EventQueue *q = execQueue(t);
    const int my_dom = engine_ ? net_->nodeDomain(t.src) : -1;
    PdesShard *shard =
        engine_ && my_dom >= 0
            ? &shards_[engine_->partitionOfDomain(my_dom)]
            : nullptr;
    if (fault_hook_ &&
        fault_hook_({q->curTick(), t.src, t.dst, t.bytes,
                     t.attempt + 1, op->id_, idx})) {
        ++t.attempt;
        if (t.attempt > params_.max_retries) {
            fatal("CommGroup '", name(), "': chunk ",
                  net_->nodeName(t.src), " -> ",
                  net_->nodeName(t.dst), " (", t.bytes, " B) failed ",
                  t.attempt, " attempts; max_retries=",
                  params_.max_retries, " exhausted");
        }
        // Exponential backoff, then try the same chunk again. The
        // op's pending count is untouched, so waitAll() keeps
        // driving the queue until the retry lands.
        EHPSIM_TRACK_WRITE(
            this,
            ("op" + std::to_string(op->id_) + ".state").c_str());
        const Tick backoff = backoffTicks(t.attempt);
        if (shard) {
            ++shard->chunk_retries;
            shard->retry_wait_ticks += backoff;
            shard->retry_samples.push_back(
                static_cast<double>(backoff));
            if (fault_sink_)
                ++shard->fault_hits;
        } else {
            ++chunk_retries;
            retry_wait_ticks += static_cast<double>(backoff);
            retry_latency.sample(static_cast<double>(backoff));
            if (fault_sink_)
                fault_sink_(1);
        }
        q->scheduleCallback(q->curTick() + backoff,
                            [this, op, idx] { runTask(op, idx); });
        return;
    }
    // Replay the cached route: no per-chunk route-table walk. Tasks
    // always join distinct ranks, so this is exactly send() minus
    // the lookup.
    const auto res =
        net_->sendOnRoute(q->curTick(), routeFor(t.route_slot),
                          t.bytes, false, shard ? &shard->send
                                                : nullptr);
    // Chunk completion mutates shared per-op state (link_bytes_,
    // finish_ max-merge, dependent ready/deps, pending_); same-tick
    // completions of one op are the canonical batch-reorder case.
    EHPSIM_TRACK_WRITE(
        this, ("op" + std::to_string(op->id_) + ".state").c_str());
    const auto moved =
        t.bytes * static_cast<std::uint64_t>(res.hops);
    op->link_bytes_.fetch_add(moved, std::memory_order_relaxed);
    if (shard)
        shard->link_bytes += moved;
    else
        link_bytes += static_cast<double>(moved);
    // Max-merge the finish tick. Relaxed is enough: the final
    // pending_ decrement below is acq_rel, so the completing
    // context sees every task's contribution.
    Tick prev = op->finish_.load(std::memory_order_relaxed);
    while (prev < res.arrival &&
           !op->finish_.compare_exchange_weak(
               prev, res.arrival, std::memory_order_relaxed)) {
    }

    const std::uint32_t *dep = op->dag_.data() + t.dep_off;
    for (std::uint32_t k = 0; k < t.dep_cnt; ++k) {
        const std::uint32_t di = dep[k];
        // A dependent in this task's own worker group (or any
        // dependent, when executing on the coordinator with workers
        // parked) is notified directly: its Task fields and queue
        // are exclusively ours right now. A cross-group dependent
        // goes through the mailbox — its arrival is >= one link
        // latency past this window's bound, so draining at the
        // boundary never reorders anything.
        if (!shard ||
            engine_->sameGroup(my_dom,
                               net_->nodeDomain(
                                   op->tasks_[di].src))) {
            CollectiveOp::Task &dt = op->tasks_[di];
            dt.ready = std::max(dt.ready, res.arrival);
            if (--dt.deps == 0)
                scheduleTask(op, di);
        } else {
            const Tick arrival = res.arrival;
            engine_->postCross(
                engine_->partitionOfDomain(my_dom),
                [this, op, di, arrival] {
                    CollectiveOp::Task &dt = op->tasks_[di];
                    dt.ready = std::max(dt.ready, arrival);
                    if (--dt.deps == 0)
                        scheduleTask(op, di);
                });
        }
    }
    if (op->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (!shard) {
            completeOp(*op);
        } else {
            // Retire on the coordinator via the mailbox: completeOp
            // samples shared stats and may invoke a user callback
            // that schedules coordinator events (the serving engine
            // does), neither of which a partition worker may do.
            // The deferred event is pinned to THIS tick — serially
            // the op completes inline inside its last chunk event,
            // so the coordinator's clock after waitAll() must read
            // the chunk's execution tick, not the (later) arrival
            // tick. The coordinator cannot have passed this tick:
            // it only steps while its head is <= every partition
            // head.
            const Tick done_at = q->curTick();
            engine_->postCross(
                engine_->partitionOfDomain(my_dom),
                [this, op, done_at] {
                    engine_->coordinator()->scheduleCallback(
                        done_at, [this, op] { completeOp(*op); });
                });
        }
    }
}

void
CommGroup::completeOp(CollectiveOp &op)
{
    EHPSIM_TRACK_WRITE(this, "stats.ops");
    const Tick fin = op.finishTick();
    ++ops_completed;
    op.retired_ = true;
    last_finish_ = std::max(last_finish_, fin);
    if (fin > op.start_)
        algo_bw_gbps.sample(op.algoBandwidth() / 1e9);
    if (op.on_complete_) {
        // Clear before invoking: the callback may retire the handle.
        auto fn = std::move(op.on_complete_);
        op.on_complete_ = nullptr;
        fn(fin);
    }
}

void
CollectiveOp::setOnComplete(std::function<void(Tick)> fn)
{
    if (on_complete_)
        panic("CollectiveOp already has a completion callback");
    if (done()) {
        fn(finishTick());
        return;
    }
    on_complete_ = std::move(fn);
}

OpHandle
CommGroup::collective(Collective coll, Tick when, std::uint64_t bytes,
                      Algorithm algo)
{
    return launch(coll, when, bytes, algo, 0);
}

OpHandle
CommGroup::launch(Collective coll, Tick when, std::uint64_t bytes,
                  Algorithm algo, unsigned root)
{
    if (coll == Collective::sendRecv)
        fatal("CommGroup '", name(), "': send_recv is "
              "point-to-point; use sendRecv()");
    auto op = std::make_shared<CollectiveOp>();
    op->kind_ = coll;
    op->algo_ = algo == Algorithm::automatic ? choose(coll, bytes)
                                             : algo;
    op->data_bytes_ = bytes;
    if (coll == Collective::allToAll) {
        // Every rank sends bytes to every other rank.
        const std::uint64_t n = numRanks();
        op->data_bytes_ = n < 2 ? 0 : bytes * n * (n - 1);
    }
    if (op->algo_ == Algorithm::ring)
        buildRing(*op, bytes, root);
    else
        buildDirect(*op, bytes, root);
    return start(when, op);
}

OpHandle
CommGroup::allReduce(Tick when, std::uint64_t bytes, Algorithm algo)
{
    return collective(Collective::allReduce, when, bytes, algo);
}

OpHandle
CommGroup::allGather(Tick when, std::uint64_t bytes, Algorithm algo)
{
    return collective(Collective::allGather, when, bytes, algo);
}

OpHandle
CommGroup::reduceScatter(Tick when, std::uint64_t bytes,
                         Algorithm algo)
{
    return collective(Collective::reduceScatter, when, bytes, algo);
}

OpHandle
CommGroup::broadcast(Tick when, unsigned root, std::uint64_t bytes,
                     Algorithm algo)
{
    if (root >= numRanks())
        fatal("broadcast root ", root, " out of range (", numRanks(),
              " ranks)");
    return launch(Collective::broadcast, when, bytes, algo, root);
}

OpHandle
CommGroup::allToAll(Tick when, std::uint64_t bytes, Algorithm algo)
{
    return collective(Collective::allToAll, when, bytes, algo);
}

OpHandle
CommGroup::sendRecv(Tick when, unsigned src, unsigned dst,
                    std::uint64_t bytes)
{
    if (src >= numRanks() || dst >= numRanks())
        fatal("sendRecv ranks ", src, " -> ", dst, " out of range (",
              numRanks(), " ranks)");
    auto op = std::make_shared<CollectiveOp>();
    op->kind_ = Collective::sendRecv;
    op->algo_ = Algorithm::direct;
    op->data_bytes_ = src == dst ? 0 : bytes;
    if (src != dst) {
        // Chunks are independent: per-link occupancy serializes them
        // at the bottleneck while they pipeline across hops.
        const ChunkSpan span = chunkSpanOf(bytes);
        op->tasks_.reserve(span.count);
        for (std::uint64_t k = 0; k < span.count; ++k) {
            const std::uint64_t c = k + 1 == span.count
                                        ? span.last
                                        : params_.chunk_bytes;
            addTask(*op, src, dst, c, nullptr, 0);
        }
    }
    return start(when, op);
}

Tick
CommGroup::waitAll()
{
    // Wait for retirement (completeOp ran), not just pending_ == 0:
    // under PDES the two are separated by a deferred coordinator
    // event, and waitAll() must not return before stats are sampled
    // and completion callbacks have fired.
    const auto retired = [](const OpHandle &op) {
        return op->retired_;
    };
    std::erase_if(outstanding_, retired);
    if (engine_) {
        // Drive the parallel core only until this group's ops have
        // retired — exactly as far as the serial loop below steps
        // the queue. Events past that point (a later fault arm, the
        // next op's work) stay pending, as they would serially.
        engine_->runUntil([this, &retired] {
            std::erase_if(outstanding_, retired);
            return outstanding_.empty();
        });
        return last_finish_;
    }
    while (!outstanding_.empty()) {
        if (!eventq()->step()) {
            panic("CommGroup '", name(), "': event queue drained "
                  "with ", outstanding_.size(),
                  " collectives pending");
        }
        std::erase_if(outstanding_, retired);
    }
    return last_finish_;
}

void
CommGroup::snapshot(SnapshotWriter &w) const
{
    if (!outstanding_.empty() &&
        std::any_of(outstanding_.begin(), outstanding_.end(),
                    [](const OpHandle &o) { return !o->retired_; })) {
        fatal("CommGroup '", name(), "': checkpoint with a "
              "collective in flight — quiesce to an op boundary "
              "first");
    }
    StatGroup::snapshot(w);
    w.putU64(last_finish_);
}

void
CommGroup::restore(SnapshotReader &r)
{
    StatGroup::restore(r);
    last_finish_ = r.getU64();
    outstanding_.clear();
    // Network::restore() rebuilt the route tables and destroyed the
    // LinkRoute objects the per-pair cache aliased; drop every slot
    // so routeFor() re-resolves lazily (no stat side effects — the
    // network prewarmed its saved-valid sources).
    pair_routes_.assign(ranks_.size() * ranks_.size(), nullptr);
    pair_epochs_.assign(ranks_.size() * ranks_.size(),
                        net_->routeEpoch());
}

double
CommGroup::maxLinkUtilization() const
{
    double u = 0;
    for (const fabric::Link *l : links_)
        u = std::max(u, l->utilization());
    return u;
}

double
CommGroup::avgLinkUtilization() const
{
    if (links_.empty())
        return 0.0;
    double u = 0;
    for (const fabric::Link *l : links_)
        u += l->utilization();
    return u / static_cast<double>(links_.size());
}

} // namespace comm
} // namespace ehpsim
