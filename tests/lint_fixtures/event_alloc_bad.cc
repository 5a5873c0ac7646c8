// Fixture: one-shots that EventQueue::scheduleCallback() boxes in a
// heap-allocated std::function must be flagged (3 findings: a
// std::function built in the call, one built with braces, and a
// lambda of 7 captures; the 6-capture lambda, the capture-less
// lambda and the array index are fine).
#include <functional>

struct Queue
{
    template <typename F>
    void scheduleCallback(unsigned long when, F &&fn);
};

void
hotPath(Queue &eq, int *counters, unsigned long idx)
{
    int a = 0, b = 0, c = 0, d = 0, e = 0, f = 0, g = 0;
    eq.scheduleCallback(10, std::function<void()>([&eq] { (void)eq; }));
    eq.scheduleCallback(20, std::function<void()>{[] {}});
    eq.scheduleCallback(30, [&a, &b, &c, &d, &e, &f, &g] {
        a = b + c + d + e + f + g;
    });
    eq.scheduleCallback(40, [&a, &b, &c, &d, &e, &f] { a = b + c + d + e + f; });
    eq.scheduleCallback(50, [] {});
    eq.scheduleCallback(60, counters[idx]);
}
