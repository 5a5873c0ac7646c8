// Fixture: raw event lifetime management must be flagged
// (3 findings: one new, two deletes). Real code schedules through
// EventQueue::scheduleCallback(), which owns the event's lifetime.
struct RetryEvent
{
    void process();
};

void
scheduleRetry(RetryEvent *pending_event)
{
    auto *ev = new RetryEvent();
    delete ev;
    delete pending_event;
}
