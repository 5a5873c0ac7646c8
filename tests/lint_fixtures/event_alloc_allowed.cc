// Fixture: the same boxed one-shots, suppressed (0 event-alloc
// findings). The stand-in Queue mirrors event_alloc_bad.cc.
#include <functional>

struct Queue
{
    template <typename F>
    void scheduleCallback(unsigned long when, F &&fn);
};

void
hotPath(Queue &eq)
{
    int a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
    // ehpsim-lint: allow(event-alloc)
    eq.scheduleCallback(10, std::function<void()>([&eq] { (void)eq; }));
    eq.scheduleCallback(20, std::function<void()>{[] {}}); // ehpsim-lint: allow(event-alloc)
    // ehpsim-lint: allow(event-alloc)
    eq.scheduleCallback(30, [&a, &b, &c, &d, &e, &f, &g] {
        a = b + c + d + e + f + g;
    });
}
