#include "comm/comm_group.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/logging.hh"
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
    // Collect every directed link any rank pair routes over in a
    // deterministic first-encounter order. Fully-connected groups
    // use exactly one link per ordered pair; multi-hop routes can
    // only share links, so this is an upper bound. Resolving each
    // pair here also fills the network's route tables that
    // runTask()'s sends walk per chunk.
    links_.reserve(ranks_.size() * (ranks_.size() - 1));
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        for (std::size_t j = 0; j < ranks_.size(); ++j) {
            if (i == j)
                continue;
            for (fabric::Link *l : net_->route(ranks_[i], ranks_[j])) {
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
                   unsigned dst_rank, std::uint64_t bytes, bool gated)
{
    const auto idx = static_cast<std::uint32_t>(op.tasks_.size());
    CollectiveOp::Task t;
    t.src = ranks_[src_rank];
    t.dst = ranks_[dst_rank];
    t.bytes = bytes;
    t.gated = gated;
    op.tasks_.push_back(t);
    return idx;
}

void
CommGroup::addJoin(CollectiveOp &op, std::uint32_t pred,
                   std::uint32_t npred, std::uint32_t first,
                   std::uint32_t cnt)
{
    // ready starts at 0, not at the op's start: every arrival is at
    // or after the start, so the max over arrivals is the same.
    const auto id = static_cast<std::uint32_t>(op.joins_.size());
    op.joins_.push_back({npred, 0, first, cnt});
    for (std::uint32_t k = pred; k < pred + npred; ++k)
        op.tasks_[k].join = id;
}

void
CommGroup::buildRing(CollectiveOp &op, std::uint64_t bytes)
{
    const unsigned n = numRanks();
    if (n < 2 || bytes == 0)
        return;
    op.tasks_.reserve(op.tasks_.size() + taskCount(op.kind_, bytes));
    const std::uint64_t cb = params_.chunk_bytes;
    // A chunk travels `steps` hops around the ring from rank `from`;
    // each hop's arrival releases the next through a one-task join.
    const auto chain = [&](unsigned from, unsigned steps,
                           std::uint64_t c) {
        for (unsigned i = 0; i < steps; ++i) {
            const std::uint32_t t =
                addTask(op, (from + i) % n, (from + i + 1) % n, c,
                        i > 0);
            if (i + 1 < steps)
                addJoin(op, t, 1, t + 1, 1);
        }
    };

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
        op.joins_.reserve((steps - 1) * shardedChunkCount(bytes));
        const std::uint64_t q = bytes / n;
        const std::uint64_t rem = bytes % n;
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k)
                chain(s, steps, k + 1 == span.count ? span.last : cb);
        }
        break;
      }
      case Collective::broadcast: {
        // Chunks pipeline from rank 0 around the ring.
        const ChunkSpan span = chunkSpanOf(bytes);
        op.joins_.reserve((n - 2) * span.count);
        for (std::uint64_t k = 0; k < span.count; ++k)
            chain(0, n - 1, k + 1 == span.count ? span.last : cb);
        break;
      }
      case Collective::allToAll: {
        // Pairwise-exchange rounds: in round i every rank sends its
        // block for rank r+i. Rounds are chained per sender, so the
        // schedule keeps the round structure of the ring variant:
        // chunk k of round i releases chunk k of round i+1.
        const ChunkSpan span = chunkSpanOf(bytes);
        const auto stride = static_cast<std::uint32_t>(span.count);
        op.joins_.reserve(n * span.count * (n - 2));
        for (unsigned r = 0; r < n; ++r) {
            for (unsigned i = 1; i < n; ++i) {
                for (std::uint64_t k = 0; k < span.count; ++k) {
                    const std::uint64_t c =
                        k + 1 == span.count ? span.last : cb;
                    const std::uint32_t t =
                        addTask(op, r, (r + i) % n, c, i > 1);
                    if (i + 1 < n)
                        addJoin(op, t, 1, t + stride, 1);
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
CommGroup::buildDirect(CollectiveOp &op, std::uint64_t bytes)
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
        // returns the reduced shard to everyone; per chunk, one join
        // holds phase 2 until all of that chunk's phase-1 arrivals.
        op.joins_.reserve(shardedChunkCount(bytes));
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t shard = q + (s < rem ? 1 : 0);
            const ChunkSpan span = chunkSpanOf(shard);
            for (std::uint64_t k = 0; k < span.count; ++k) {
                const std::uint64_t c =
                    k + 1 == span.count ? span.last : cb;
                const auto rs =
                    static_cast<std::uint32_t>(op.tasks_.size());
                for (unsigned r = 0; r < n; ++r) {
                    if (r != s)
                        addTask(op, r, s, c, false);
                }
                for (unsigned d = 0; d < n; ++d) {
                    if (d != s)
                        addTask(op, s, d, c, true);
                }
                addJoin(op, rs, n - 1, rs + n - 1, n - 1);
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
                        addTask(op, s, d, c, false);
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
                        addTask(op, r, s, c, false);
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
            for (unsigned d = 1; d < n; ++d)
                addTask(op, 0, d, c, false);
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
                    addTask(op, r, d, c, false);
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
    // Retire finished handles here as well as in waitAll(), so
    // event-driven callers that never block (the serving engine)
    // keep outstanding_ bounded by the ops actually in flight.
    std::erase_if(outstanding_,
                  [](const OpHandle &o) { return o->done(); });
    outstanding_.push_back(op);
    scheduleRelease(op.get(), 0,
                    static_cast<std::uint32_t>(op->tasks_.size()),
                    false, op->start_);
    return op;
}

void
CommGroup::scheduleRelease(CollectiveOp *op, std::uint32_t first,
                           std::uint32_t end, bool gated, Tick when)
{
    // Same order as one event per task pushed back to back at @p
    // when. The bounds live in the capture: an op completes only when
    // its last task runs, here the loop's last, and may be freed then.
    eventq()->scheduleCallback(when, [this, op, first, end, gated] {
        for (std::uint32_t i = first; i < end; ++i) {
            if (op->tasks_[i].gated == gated)
                runTask(op, i);
        }
    });
}

void
CommGroup::scheduleTask(CollectiveOp *op, std::uint32_t idx, Tick when)
{
    // Pool fast path: the capture (this, op, idx) fits a recycled
    // slot, so a retry allocates nothing in steady state.
    eventq()->scheduleCallback(when,
                               [this, op, idx] { runTask(op, idx); });
}

void
CommGroup::setChunkFaultHook(ChunkFaultHook hook)
{
    fault_hook_ = std::move(hook);
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
CommGroup::runTask(CollectiveOp *op, std::uint32_t idx)
{
    CollectiveOp::Task &t = op->tasks_[idx];
    const Tick now = eventq()->curTick();
    if (fault_hook_ &&
        fault_hook_({now, t.src, t.dst, t.bytes, t.attempt + 1,
                     op->id_, idx})) {
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
        ++chunk_retries;
        retry_wait_ticks += static_cast<double>(backoff);
        retry_latency.sample(static_cast<double>(backoff));
        scheduleTask(op, idx, now + backoff);
        return;
    }
    // send() walks the network's route for (src, dst), which a
    // link fault drops and recomputes.
    const auto res = net_->send(now, t.src, t.dst, t.bytes);
    // Chunk completion mutates shared per-op state (link_bytes_,
    // finish_ max-merge, join ready/deps, pending_); same-tick
    // completions of one op are the canonical batch-reorder case.
    EHPSIM_TRACK_WRITE(
        this, ("op" + std::to_string(op->id_) + ".state").c_str());
    const auto moved =
        t.bytes * static_cast<std::uint64_t>(res.hops);
    op->link_bytes_ += moved;
    link_bytes += static_cast<double>(moved);
    op->finish_ = std::max(op->finish_, res.arrival);

    if (t.join != CollectiveOp::noJoin) {
        CollectiveOp::Join &j = op->joins_[t.join];
        j.ready = std::max(j.ready, res.arrival);
        if (--j.deps == 0)
            scheduleRelease(op, j.first, j.first + j.cnt, true, j.ready);
    }
    // Nothing touches op after this: completeOp()'s callback may
    // drop the last handle, and the next start() frees the op.
    if (--op->pending_ == 0)
        completeOp(*op);
}

void
CommGroup::completeOp(CollectiveOp &op)
{
    EHPSIM_TRACK_WRITE(this, "stats.ops");
    const Tick fin = op.finishTick();
    ++ops_completed;
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
        buildRing(*op, bytes);
    else
        buildDirect(*op, bytes);
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
            addTask(*op, src, dst, c, false);
        }
    }
    return start(when, op);
}

Tick
CommGroup::waitAll()
{
    const auto done = [](const OpHandle &op) { return op->done(); };
    std::erase_if(outstanding_, done);
    while (!outstanding_.empty()) {
        if (!eventq()->step()) {
            panic("CommGroup '", name(), "': event queue drained "
                  "with ", outstanding_.size(),
                  " collectives pending");
        }
        std::erase_if(outstanding_, done);
    }
    return last_finish_;
}

void
CommGroup::snapshot(SnapshotWriter &w) const
{
    if (std::any_of(outstanding_.begin(), outstanding_.end(),
                    [](const OpHandle &o) { return !o->done(); })) {
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
