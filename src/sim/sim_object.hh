/**
 * @file
 * Base class for simulated hardware components.
 *
 * A SimObject couples a name, a StatGroup node, and a pointer to the
 * owning EventQueue, mirroring gem5's SimObject in miniature.
 *
 * Checkpointing: SimObject inherits the snapshot(SnapshotWriter&) /
 * restore(SnapshotReader&) virtual pair from stats::StatGroup
 * (DESIGN.md §16). The inherited base walk serializes the object's
 * registered stats and recurses into its children; state-bearing
 * components override both, calling the base first and then
 * appending their extra dynamic state. saveWorld()/restoreWorld()
 * below bundle the object tree with its EventQueue into one blob.
 */

#ifndef EHPSIM_SIM_SIM_OBJECT_HH
#define EHPSIM_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace ehpsim
{

class SimObject : public stats::StatGroup
{
  public:
    /**
     * @param parent Enclosing component (may be nullptr for roots).
     * @param name Short name; the stat path prepends the parents'.
     * @param eq Event queue driving this component; roots must supply
     *        one, children default to their parent's.
     */
    SimObject(SimObject *parent, std::string name,
              EventQueue *eq = nullptr)
        : stats::StatGroup(parent, name),
          name_(std::move(name)),
          parent_(parent),
          eventq_(eq ? eq : (parent ? parent->eventq_ : nullptr))
    {
    }

    const std::string &name() const { return name_; }

    SimObject *parent() const { return parent_; }

    EventQueue *eventq() const { return eventq_; }

    Tick curTick() const { return eventq_ ? eventq_->curTick() : 0; }

  private:
    std::string name_;
    SimObject *parent_;
    EventQueue *eventq_;
};

/**
 * Checkpoint a whole simulation — queue first (counters + pending
 * keyed events), then the object tree rooted at @p root — into one
 * versioned blob. The simulation must be quiesced: every pending
 * event keyed, no collective op in flight.
 */
std::string saveWorld(const EventQueue &eq,
                      const stats::StatGroup &root);

/**
 * Restore a blob produced by saveWorld() into a freshly constructed
 * world: the same components, built in the same order, with nothing
 * scheduled and nothing run (in particular: do not start engines or
 * arm injectors — their pending events replay from the blob).
 * Fatal on a corrupt, truncated, or mismatched checkpoint.
 */
void restoreWorld(const std::string &blob, EventQueue &eq,
                  stats::StatGroup &root);

} // namespace ehpsim

#endif // EHPSIM_SIM_SIM_OBJECT_HH
