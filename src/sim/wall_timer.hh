/**
 * @file
 * The one sanctioned wall-clock in ehpsim.
 *
 * Simulated time (EventQueue ticks) is the only clock simulation
 * logic may read; ehpsim-lint's wall-clock rule enforces that
 * tree-wide. Operator-facing progress reporting — "how long did this
 * sweep take on the host" — still needs real time, so it goes
 * through WallTimer, the single whitelisted wrapper. Anything a
 * WallTimer measures is host-dependent by construction and therefore
 * must never be serialized into a deterministic payload (the
 * ehpsim-sweep-v1 contract excludes it; sweep_test asserts that).
 */

#ifndef EHPSIM_SIM_WALL_TIMER_HH
#define EHPSIM_SIM_WALL_TIMER_HH

namespace ehpsim
{

class WallTimer
{
  public:
    /** Starts timing at construction. */
    WallTimer();

    /** Host seconds elapsed since construction. */
    double seconds() const;

  private:
    /** steady_clock::time_point, stored opaquely so no caller ever
     *  includes <chrono> (which would re-open the wall-clock door). */
    long long start_ns_;
};

} // namespace ehpsim

#endif // EHPSIM_SIM_WALL_TIMER_HH
