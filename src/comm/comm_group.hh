/**
 * @file
 * RCCL-style collective communication over the node fabric.
 *
 * Paper Sec. VIII builds multi-socket nodes from the eight x16 IF
 * links each MI300 socket exposes (Fig. 18). A CommGroup is the
 * communicator a training/inference stack would create over such a
 * node: a set of ranks (fabric nodes, normally whole sockets) that
 * execute collectives — all-reduce, all-gather, reduce-scatter,
 * broadcast, all-to-all, and point-to-point send/recv.
 *
 * Collectives are not closed-form formulas: each one is decomposed
 * into chunked link transfers with explicit data dependencies and
 * executed as events on the group's EventQueue. Transfers go through
 * fabric::Network::send(), so they pay real per-hop serialization and
 * occupancy — two collectives sharing an x16 link slow each other
 * down, exactly the effect that dominates achieved inter-APU
 * bandwidth on real MI300 systems.
 *
 * Two algorithms per collective, plus auto-selection:
 *  - ring: ranks form a logical ring; payloads are sharded and
 *    pipelined around it. Uses only neighbor links; the classic
 *    bandwidth-optimal choice on sparse topologies. All-reduce moves
 *    2(N-1)/N of the buffer over every ring link.
 *  - direct: every transfer goes point-to-point over the (possibly
 *    multi-hop) shortest path. On the fully-connected Fig. 18 nodes
 *    each rank drives its N-1 dedicated links in parallel, and the
 *    step count is minimal, so direct wins both the latency- and the
 *    bandwidth-bound regimes there.
 *  - automatic: direct for small payloads (fewest serialized steps)
 *    or when every rank pair is one hop apart; ring otherwise.
 */

#ifndef EHPSIM_COMM_COMM_GROUP_HH
#define EHPSIM_COMM_COMM_GROUP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/network.hh"
#include "sim/sim_object.hh"
#include "sim/units.hh"

namespace ehpsim
{
namespace pdes
{
class PdesEngine;
} // namespace pdes

namespace comm
{

enum class Collective
{
    allReduce,
    allGather,
    reduceScatter,
    broadcast,
    allToAll,
    sendRecv,
};

const char *collectiveName(Collective c);

enum class Algorithm
{
    automatic,      ///< pick by payload size and topology
    ring,
    direct,
};

const char *algorithmName(Algorithm a);

/** Tuning knobs of a CommGroup. */
struct CommParams
{
    /** Max bytes per scheduled link transfer (pipelining grain). */
    std::uint64_t chunk_bytes = 4 * MiB;
    /** Auto-selection: payloads at or below this go direct. */
    std::uint64_t direct_threshold = 1 * MiB;
    /**
     * @{
     * Transient-fault policy (DESIGN.md §10): a chunk transfer
     * attempt failed by the fault hook retries after
     * retry_timeout * backoff_base^(attempt-1) ticks; a chunk that
     * fails more than max_retries attempts fatals the run.
     */
    unsigned max_retries = 4;
    Tick retry_timeout = 1'000'000;     ///< 1 us base backoff
    double backoff_base = 2.0;
    /** @} */
};

/**
 * One in-flight (or finished) collective. Handles are shared between
 * the caller and the scheduled events; inspect after waitAll().
 */
class CollectiveOp
{
  public:
    Collective kind() const { return kind_; }

    /** The resolved algorithm (never Algorithm::automatic). */
    Algorithm algorithm() const { return algo_; }

    /** 1-based start order within the owning group (0 before
     *  start). Names the op deterministically in race reports. */
    unsigned id() const { return id_; }

    /** The payload size the caller asked to move (per rank). */
    std::uint64_t dataBytes() const { return data_bytes_; }

    /** Bytes x hops actually placed on fabric links. */
    std::uint64_t
    linkBytes() const
    {
        return link_bytes_.load(std::memory_order_relaxed);
    }

    bool
    done() const
    {
        return started_ &&
               pending_.load(std::memory_order_relaxed) == 0;
    }

    Tick startTick() const { return start_; }

    /** Completion tick; valid once done(). */
    Tick
    finishTick() const
    {
        return finish_.load(std::memory_order_relaxed);
    }

    double
    seconds() const
    {
        return secondsFromTicks(finishTick() - start_);
    }

    /**
     * Algorithmic ("algbw") bandwidth: dataBytes / wall time, the
     * figure of merit RCCL reports. For ring all-reduce this is
     * bounded by link_bw * N / (2(N-1)).
     */
    double algoBandwidth() const;

    /**
     * Invoke @p fn with the finish tick exactly once when the op
     * completes. Fires immediately (from this call) if the op is
     * already done; otherwise it fires from within event processing
     * when the last chunk lands, so event-driven callers (the
     * serving engine) can chain work off a collective without
     * blocking in waitAll(). At most one callback per op.
     */
    void setOnComplete(std::function<void(Tick)> fn);

  private:
    friend class CommGroup;

    /** One chunk moving src -> dst once @c deps transfers finished. */
    struct Task
    {
        fabric::NodeId src;
        fabric::NodeId dst;
        std::uint64_t bytes;
        unsigned deps = 0;
        unsigned attempt = 0;   ///< transfer attempts failed so far
        Tick ready = 0;
        std::uint32_t dep_off = 0;  ///< first dependent, index into dag_
        std::uint32_t dep_cnt = 0;  ///< number of dependents in dag_
        std::uint32_t route_slot = 0; ///< src_rank * numRanks + dst_rank
    };

    Collective kind_ = Collective::allReduce;
    Algorithm algo_ = Algorithm::direct;
    unsigned id_ = 0;
    std::uint64_t data_bytes_ = 0;
    /**
     * link_bytes_/finish_/pending_ are atomics because under PDES
     * tasks of one op execute concurrently on several partition
     * workers. All updates are commutative (add, max, countdown), so
     * relaxed ordering suffices; the final pending_ decrement is
     * acq_rel, which makes every earlier task's writes visible to
     * whoever observes the op complete.
     */
    std::atomic<std::uint64_t> link_bytes_{0};
    bool started_ = false;
    Tick start_ = 0;
    std::atomic<Tick> finish_{0};
    std::atomic<std::size_t> pending_{0};
    /** Set by completeOp(): the op has fully retired (stats sampled,
     *  on_complete fired) — under PDES this lags pending_ == 0 by a
     *  deferred coordinator event. */
    bool retired_ = false;
    std::function<void(Tick)> on_complete_;
    std::vector<Task> tasks_;
    /**
     * Dependent edges in CSR form: task i's dependents occupy
     * dag_[tasks_[i].dep_off .. dep_off + dep_cnt). One arena per op
     * instead of one vector per task, so building a collective does
     * no per-chunk heap allocation (DESIGN.md §12).
     */
    std::vector<std::uint32_t> dag_;
};

using OpHandle = std::shared_ptr<CollectiveOp>;

class CommGroup : public SimObject
{
  public:
    /**
     * @param net Fabric carrying the traffic (not owned).
     * @param ranks Fabric node of each rank; rank i == ranks[i].
     * @param eq Event queue the collectives are scheduled on.
     */
    CommGroup(SimObject *parent, const std::string &name,
              fabric::Network *net, std::vector<fabric::NodeId> ranks,
              EventQueue *eq, const CommParams &params = CommParams{});

    unsigned numRanks() const
    {
        return static_cast<unsigned>(ranks_.size());
    }

    const CommParams &params() const { return params_; }

    /** True when every rank pair is a single fabric hop apart. */
    bool fullyConnected() const;

    /** The algorithm automatic resolves to for @p bytes. */
    Algorithm choose(Collective coll, std::uint64_t bytes) const;

    /**
     * @{
     * Start a collective no earlier than @p when (clamped to the
     * queue's current tick). Non-blocking: transfers are scheduled
     * as events; drive the queue (waitAll()) to make progress.
     * @p bytes is the per-rank buffer size: all-gather gathers
     * @p bytes in total (each rank contributes bytes/N), all-to-all
     * sends @p bytes from every rank to every other rank.
     * collective() starts any kind but sendRecv (fatal; it needs a
     * rank pair), broadcasting from rank 0.
     */
    OpHandle collective(Collective coll, Tick when, std::uint64_t bytes,
                        Algorithm algo = Algorithm::automatic);
    OpHandle allReduce(Tick when, std::uint64_t bytes,
                       Algorithm algo = Algorithm::automatic);
    OpHandle allGather(Tick when, std::uint64_t bytes,
                       Algorithm algo = Algorithm::automatic);
    OpHandle reduceScatter(Tick when, std::uint64_t bytes,
                           Algorithm algo = Algorithm::automatic);
    OpHandle broadcast(Tick when, unsigned root, std::uint64_t bytes,
                       Algorithm algo = Algorithm::automatic);
    OpHandle allToAll(Tick when, std::uint64_t bytes,
                      Algorithm algo = Algorithm::automatic);
    /** @} */

    /** Point-to-point: @p bytes from rank @p src to rank @p dst. */
    OpHandle sendRecv(Tick when, unsigned src, unsigned dst,
                      std::uint64_t bytes);

    /**
     * One chunk-transfer attempt, as seen by the fault hook.
     * (op_id, task_index, attempt) uniquely and deterministically
     * names the attempt — op ids are assigned in start order and
     * task indices in DAG construction order — so a stateless
     * counter-based fault model draws the same verdict for the same
     * attempt no matter which thread, queue, or window executes it.
     */
    struct ChunkAttempt
    {
        Tick when;              ///< executing queue's current tick
        fabric::NodeId src;
        fabric::NodeId dst;
        std::uint64_t bytes;
        unsigned attempt;       ///< 1-based
        std::uint64_t op_id;    ///< CollectiveOp::id()
        std::uint32_t task_index;
    };

    /**
     * Transient-fault model for chunk transfers. Called once per
     * attempt; returning true fails the attempt, which is retried
     * with exponential backoff per CommParams. nullptr (the default)
     * means transfers are reliable. Under PDES the hook runs on
     * partition workers concurrently: it must be pure in the
     * ChunkAttempt fields (no mutable state) — do accounting in the
     * fault sink instead.
     */
    using ChunkFaultHook = std::function<bool(const ChunkAttempt &)>;

    void setChunkFaultHook(ChunkFaultHook hook);

    /**
     * Accounting sink for hook-failed attempts: invoked with a count
     * of newly failed attempts, always on the main thread (inline in
     * serial mode; batched per partition at PDES stat flush).
     */
    void setChunkFaultSink(std::function<void(std::uint64_t)> sink);

    /**
     * Backoff delay before retry number @p attempt (1-based),
     * saturated at maxBackoff so deep retries can't overflow Tick
     * (the unsaturated double -> Tick cast was UB past 2^63).
     */
    Tick backoffTicks(unsigned attempt) const;

    /** Saturation bound of backoffTicks(): far beyond any simulated
     *  horizon, yet small enough that curTick() + backoff and summed
     *  retry-wait stats stay overflow-free. */
    static constexpr Tick maxBackoff = maxTick / 4;

    /**
     * Run this group's collectives on a conservative parallel core
     * (DESIGN.md §15) instead of the serial queue. Must be called
     * while no op is outstanding and before further ops start; the
     * group declares every ordered rank pair as traffic (feeding the
     * engine's lookahead table), shards its hot-path stats per
     * partition, and routes chunk events to the engine's partition
     * queues by each chunk's source domain. Pass nullptr to detach
     * (events return to the serial queue).
     */
    void attachPdes(pdes::PdesEngine *engine);

    /**
     * Drive the event queue until every outstanding collective of
     * this group completes. @return the latest finish tick seen.
     */
    Tick waitAll();

    /** Busy fraction of the busiest link any rank pair routes over. */
    double maxLinkUtilization() const;

    /** Mean busy fraction over the group's links. */
    double avgLinkUtilization() const;

    /** @{ statistics */
    stats::Scalar ops_started;
    stats::Scalar ops_completed;
    stats::Scalar allreduce_bytes;
    stats::Scalar allgather_bytes;
    stats::Scalar reduce_scatter_bytes;
    stats::Scalar broadcast_bytes;
    stats::Scalar all_to_all_bytes;
    stats::Scalar sendrecv_bytes;
    stats::Scalar link_bytes;
    stats::Scalar chunk_retries;
    stats::Scalar retry_wait_ticks;
    stats::Distribution retry_latency;
    stats::Average algo_bw_gbps;
    stats::Formula avg_link_busy;
    stats::Formula max_link_busy;
    /** @} */

    /**
     * @{ checkpoint (DESIGN.md §16). The group may only be saved at
     * an op boundary — the EventQueue save refuses unkeyed pending
     * events, and every chunk/retry event is unkeyed, so a legal
     * checkpoint implies no collective in flight. That leaves the
     * stats (base walk) plus last_finish_. restore() additionally
     * drops the per-pair route cache: Network::restore() destroyed
     * the LinkRoute storage those pointers aliased, and routeFor()
     * lazily re-resolves against the restored route tables.
     */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    /**
     * Closed-form chunking of a buffer into params_.chunk_bytes
     * pieces: @c count chunks, every one full-sized except the last.
     * Replaces materializing a vector of chunk sizes per shard; the
     * k-th chunk is chunk_bytes for k < count-1 and @c last for the
     * final one, identical to the old chunksOf() sequence.
     */
    struct ChunkSpan
    {
        std::uint64_t count = 0;
        std::uint64_t last = 0;     ///< bytes in the final chunk
    };

    ChunkSpan chunkSpanOf(std::uint64_t bytes) const;

    /** Number of chunk transfers @p bytes decomposes into. */
    std::uint64_t chunkCount(std::uint64_t bytes) const;

    /**
     * Total chunks over the N near-equal shards of @p bytes
     * (bytes % N shards of size bytes/N + 1, the rest bytes/N —
     * the closed form of the old splitEven()).
     */
    std::uint64_t shardedChunkCount(std::uint64_t bytes) const;

    /**
     * Exact number of chunk transfers a collective over @p bytes
     * schedules (identical for ring and direct), used to pre-size
     * the task DAG and the event queue's scheduling heap.
     */
    std::uint64_t taskCount(Collective kind, std::uint64_t bytes) const;

    /**
     * Append a task. Dependency edges are staged in edge_scratch_
     * until finalizeDag() packs them into the op's CSR arena.
     * @return the new task's index.
     */
    std::uint32_t addTask(CollectiveOp &op, unsigned src_rank,
                          unsigned dst_rank, std::uint64_t bytes,
                          const std::uint32_t *deps,
                          std::uint32_t ndeps);

    /**
     * Pack edge_scratch_ into op.dag_ with a stable counting sort:
     * each task's dependents keep edge-insertion order, which is the
     * order the old per-Task dependent vectors produced, so event
     * scheduling order — and therefore every simulated tick — is
     * unchanged.
     */
    void finalizeDag(CollectiveOp &op);

    /**
     * The cached link-resolved route for @p slot
     * (src_rank * numRanks + dst_rank), revalidated per slot against
     * the network's routeEpoch() so fault-driven rerouting
     * invalidates it exactly when the node-path cache is
     * invalidated. Per-slot epochs (rather than one group-wide
     * epoch dropping the whole cache) keep revalidation local to
     * the slot's owning PDES worker group.
     */
    const fabric::LinkRoute &routeFor(std::uint32_t slot);

    /** Queue the chunk events of task @p t execute on: the engine's
     *  queue for t.src's partition domain under PDES, else the
     *  group's serial queue. */
    EventQueue *execQueue(const CollectiveOp::Task &t);

    /** Merge per-partition stat shards into the shared Scalars, in
     *  partition order (PDES flush hook; workers parked). */
    void flushShards();

    void buildRing(CollectiveOp &op, std::uint64_t bytes,
                   unsigned root);
    void buildDirect(CollectiveOp &op, std::uint64_t bytes,
                     unsigned root);

    /** Build a collective's DAG and start it; @p root is the
     *  broadcast source. */
    OpHandle launch(Collective coll, Tick when, std::uint64_t bytes,
                    Algorithm algo, unsigned root);

    /** Record stats, clamp the start tick, schedule ready tasks. */
    OpHandle start(Tick when, OpHandle op);

    void scheduleTask(const OpHandle &op, std::uint32_t idx);
    void runTask(const OpHandle &op, std::uint32_t idx);
    void completeOp(CollectiveOp &op);

    stats::Scalar &bytesCounter(Collective c);

    /**
     * Per-partition shard of the hot-path statistics. Under PDES,
     * chunk events on different partition workers cannot touch the
     * shared Scalars; each worker accumulates into its own shard
     * (single writer), and flushShards() folds them back in
     * partition order with all workers parked. The merged totals are
     * order-independent — sums of integer-valued doubles and
     * bucketed Distribution samples — so JSON output is byte-equal
     * to the serial run's.
     */
    struct PdesShard
    {
        std::uint64_t chunk_retries = 0;
        std::uint64_t retry_wait_ticks = 0;
        std::uint64_t link_bytes = 0;
        std::uint64_t fault_hits = 0;
        std::vector<double> retry_samples;
        fabric::Network::SendCounters send;
    };

    fabric::Network *net_;
    std::vector<fabric::NodeId> ranks_;
    CommParams params_;
    ChunkFaultHook fault_hook_;
    std::function<void(std::uint64_t)> fault_sink_;
    pdes::PdesEngine *engine_ = nullptr;
    std::vector<PdesShard> shards_;
    /** Every directed link some rank pair routes over. */
    std::vector<fabric::Link *> links_;
    /**
     * Per rank-pair LinkRoute cache, slot = src_rank * N + dst_rank.
     * Entries point into the network's own route cache; a slot is
     * re-resolved lazily when its epoch trails routeEpoch() (a link
     * fault or topology change) — the per-chunk hot path
     * dereferences one pointer instead of re-walking the route
     * table per hop. Each slot is touched only by its source rank's
     * owning worker group, so no locking is needed under PDES.
     */
    std::vector<const fabric::LinkRoute *> pair_routes_;
    std::vector<std::uint64_t> pair_epochs_;
    /** @{ construction scratch, reused across ops so steady-state
     *  collective construction never allocates per chunk */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_scratch_;
    std::vector<std::uint32_t> prev_scratch_;
    std::vector<std::uint32_t> id_scratch_;
    /** @} */
    std::vector<OpHandle> outstanding_;
    Tick last_finish_ = 0;
};

} // namespace comm
} // namespace ehpsim

#endif // EHPSIM_COMM_COMM_GROUP_HH
