// Fixture: the same raw event lifetimes, suppressed (0 findings).
// Real code schedules through EventQueue::scheduleCallback().
struct RetryEvent
{
    void process();
};

void
scheduleRetry(RetryEvent *pending_event)
{
    auto *ev = new RetryEvent(); // ehpsim-lint: allow(event-new)
    delete ev;                   // ehpsim-lint: allow(event-new)
    // ehpsim-lint: allow(event-new)
    delete pending_event;
}
