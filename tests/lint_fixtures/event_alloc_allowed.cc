// Fixture: the same allocating one-shots, suppressed (0 event-alloc
// findings; the event-new finding is suppressed separately). The
// stand-ins mirror event_alloc_bad.cc; real code schedules through
// EventQueue::scheduleCallback().
struct Queue
{
    void schedule(void *ev, unsigned long when);
    void scheduleLambda(unsigned long when, int fn);
};

struct LambdaEvent
{
    int fn;
};

void
hotPath(Queue &eq)
{
    // ehpsim-lint: allow(event-alloc, event-new)
    eq.schedule(new LambdaEvent{1}, 10);
    eq.scheduleLambda(20, [&eq] { (void)eq; }); // ehpsim-lint: allow(event-alloc)
    // ehpsim-lint: allow(event-alloc)
    eq.scheduleLambda(30, [&eq](int) { (void)eq; });
}
