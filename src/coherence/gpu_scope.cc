#include "coherence/gpu_scope.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace coherence
{

ScopeController::ScopeController(SimObject *parent,
                                 const std::string &name)
    : SimObject(parent, name),
      acquires(this, "acquires", "acquire operations"),
      releases(this, "releases", "release operations"),
      l1_invalidations(this, "l1_invalidations",
                       "L1 lines invalidated by acquires"),
      l2_flush_bytes(this, "l2_flush_bytes",
                     "bytes flushed from L2s by releases")
{
}

void
ScopeController::addXcdCaches(std::vector<mem::Cache *> l1s,
                              mem::Cache *l2)
{
    l1s_.push_back(std::move(l1s));
    l2s_.push_back(l2);
}

ScopeOp
ScopeController::acquire(Tick when, unsigned xcd, Scope scope)
{
    if (xcd >= l2s_.size())
        fatal("acquire on unknown XCD ", xcd);
    ++acquires;
    ScopeOp op;
    op.complete = when;
    if (scope == Scope::workgroup)
        return op;      // L1 already sees the workgroup's writes

    // agent and wider: invalidate the XCD's (non-coherent) L1s so
    // subsequent loads observe other agents' writes via L2/fabric.
    for (auto *l1 : l1s_[xcd]) {
        const std::uint64_t valid = l1->array().numValid();
        auto dirty = const_cast<mem::Cache *>(l1)->flush(when);
        (void)dirty;
        op.lines_invalidated += valid;
    }
    l1_invalidations += static_cast<double>(op.lines_invalidated);

    if (scope == Scope::device || scope == Scope::system) {
        // The L2 may also hold lines homed on other agents; acquire
        // at device scope invalidates them. Modeled as a full flush.
        const std::uint64_t flushed = l2s_[xcd]->flush(when);
        op.bytes_written_back += flushed;
    }
    return op;
}

ScopeOp
ScopeController::release(Tick when, unsigned xcd, Scope scope)
{
    if (xcd >= l2s_.size())
        fatal("release on unknown XCD ", xcd);
    ++releases;
    ScopeOp op;
    op.complete = when;
    if (scope == Scope::workgroup)
        return op;

    // Push dirty L1 data into L2.
    for (auto *l1 : l1s_[xcd])
        op.bytes_written_back += l1->flush(when);

    if (scope == Scope::device || scope == Scope::system) {
        // Make writes visible beyond the XCD: flush L2 toward memory.
        op.bytes_written_back += l2s_[xcd]->flush(when);
    }
    l2_flush_bytes += static_cast<double>(op.bytes_written_back);
    return op;
}

} // namespace coherence
} // namespace ehpsim
