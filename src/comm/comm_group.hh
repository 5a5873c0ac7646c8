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
 * the caller and the group, which holds one until the op completes;
 * inspect after waitAll().
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
    std::uint64_t linkBytes() const { return link_bytes_; }

    bool done() const { return started_ && pending_ == 0; }

    Tick startTick() const { return start_; }

    /** Completion tick; valid once done(). */
    Tick finishTick() const { return finish_; }

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

    static constexpr std::uint32_t noJoin = ~std::uint32_t{0};

    /** One chunk moving src -> dst. */
    struct Task
    {
        fabric::NodeId src;
        fabric::NodeId dst;
        std::uint64_t bytes;
        unsigned attempt = 0;   ///< transfer attempts failed so far
        std::uint32_t join = noJoin;    ///< join its arrival feeds
        bool gated = false;     ///< released by a join, not by start
    };

    /**
     * A chunk barrier: when the last of its @c deps predecessors
     * lands, it releases tasks [first, first + cnt) at @c ready, the
     * latest arrival among them, as one event that runs them in
     * index order. A task feeds at most one join.
     */
    struct Join
    {
        unsigned deps = 0;
        Tick ready = 0;
        std::uint32_t first = 0;
        std::uint32_t cnt = 0;
    };

    Collective kind_ = Collective::allReduce;
    Algorithm algo_ = Algorithm::direct;
    unsigned id_ = 0;
    std::uint64_t data_bytes_ = 0;
    std::uint64_t link_bytes_ = 0;
    bool started_ = false;
    Tick start_ = 0;
    Tick finish_ = 0;
    std::size_t pending_ = 0;
    std::function<void(Tick)> on_complete_;
    std::vector<Task> tasks_;
    std::vector<Join> joins_;
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
     * task indices in schedule construction order — so a stateless
     * counter-based fault model draws the same verdict for the same
     * attempt whatever the event order.
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
     * means transfers are reliable.
     */
    using ChunkFaultHook = std::function<bool(const ChunkAttempt &)>;

    void setChunkFaultHook(ChunkFaultHook hook);

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
     * stats (base walk) plus last_finish_.
     */
    void snapshot(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
    /** @} */

  private:
    /**
     * Closed-form chunking of a buffer into params_.chunk_bytes
     * pieces: @c count chunks, every one full-sized except the last.
     * The k-th chunk is chunk_bytes for k < count-1 and @c last for
     * the final one.
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
     * (bytes % N shards of size bytes/N + 1, the rest bytes/N).
     */
    std::uint64_t shardedChunkCount(std::uint64_t bytes) const;

    /**
     * Exact number of chunk transfers a collective over @p bytes
     * schedules (identical for ring and direct), used to pre-size
     * the task DAG.
     */
    std::uint64_t taskCount(Collective kind, std::uint64_t bytes) const;

    /**
     * Append a task; a @p gated one waits for the join that
     * releases it, the rest start with the op.
     * @return the new task's index.
     */
    std::uint32_t addTask(CollectiveOp &op, unsigned src_rank,
                          unsigned dst_rank, std::uint64_t bytes,
                          bool gated);

    /**
     * Make tasks [@p pred, @p pred + @p npred) feed one join that
     * releases tasks [@p first, @p first + @p cnt), in index order,
     * at the latest of their arrivals.
     */
    void addJoin(CollectiveOp &op, std::uint32_t pred,
                 std::uint32_t npred, std::uint32_t first,
                 std::uint32_t cnt);

    void buildRing(CollectiveOp &op, std::uint64_t bytes);
    void buildDirect(CollectiveOp &op, std::uint64_t bytes);

    /** Record stats, clamp the start tick, schedule ready tasks. */
    OpHandle start(Tick when, OpHandle op);

    /**
     * Events capture a plain op pointer: outstanding_ keeps the op
     * alive until its last task has run, and that task touches
     * nothing after completeOp(), whose callback may drop the last
     * handle and start the next op.
     *
     * scheduleRelease() runs, as one event at @p when, every task in
     * [@p first, @p end) whose gated flag equals @p gated, in index
     * order: start() releases the ungated tasks, a join its gated
     * range. scheduleTask() is one task's retry.
     */
    void scheduleRelease(CollectiveOp *op, std::uint32_t first,
                         std::uint32_t end, bool gated, Tick when);
    void scheduleTask(CollectiveOp *op, std::uint32_t idx, Tick when);
    void runTask(CollectiveOp *op, std::uint32_t idx);
    void completeOp(CollectiveOp &op);

    stats::Scalar &bytesCounter(Collective c);

    fabric::Network *net_;
    std::vector<fabric::NodeId> ranks_;
    CommParams params_;
    ChunkFaultHook fault_hook_;
    /** Every directed link some rank pair routes over. */
    std::vector<fabric::Link *> links_;
    std::vector<OpHandle> outstanding_;
    Tick last_finish_ = 0;
};

} // namespace comm
} // namespace ehpsim

#endif // EHPSIM_COMM_COMM_GROUP_HH
