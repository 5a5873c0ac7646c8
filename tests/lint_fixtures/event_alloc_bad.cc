// Fixture: allocating one-shot scheduling must be flagged
// (3 findings: one new LambdaEvent — which also trips event-new —
// and two capturing scheduleLambda calls; the capture-less call and
// the array index are fine). Queue and LambdaEvent stand in for
// allocating paths the EventQueue does not have; real code schedules
// through the pooled EventQueue::scheduleCallback().
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
hotPath(Queue &eq, int *counters, unsigned long idx)
{
    eq.schedule(new LambdaEvent{1}, 10);
    eq.scheduleLambda(20, [&eq] { (void)eq; });
    eq.scheduleLambda(30, [counters, idx](int) { (void)counters; });
    eq.scheduleLambda(40, [] {});
    eq.scheduleLambda(50, counters[idx]);
}
