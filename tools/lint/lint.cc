#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace ehpsim
{
namespace lint
{

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c));
}

std::size_t
skipSpace(const std::string &s, std::size_t i)
{
    while (i < s.size() && isSpace(s[i]))
        ++i;
    return i;
}

/** Offset of each line start, for offset -> line translation. */
std::vector<std::size_t>
lineStarts(const std::string &s)
{
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\n')
            starts.push_back(i + 1);
    }
    return starts;
}

unsigned
lineOf(const std::vector<std::size_t> &starts, std::size_t off)
{
    const auto it =
        std::upper_bound(starts.begin(), starts.end(), off);
    return static_cast<unsigned>(it - starts.begin());
}

/**
 * Blank comments (always) and string/char literals (optionally) with
 * spaces, preserving every byte offset and newline. Handles //,
 * block comments, escapes, and raw string literals.
 */
std::string
stripSource(const std::string &in, bool keep_strings)
{
    std::string out = in;
    std::size_t i = 0;
    const std::size_t n = in.size();

    auto blank = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to && k < n; ++k) {
            if (out[k] != '\n')
                out[k] = ' ';
        }
    };

    while (i < n) {
        const char c = in[i];
        if (c == '/' && i + 1 < n && in[i + 1] == '/') {
            std::size_t j = i;
            while (j < n && in[j] != '\n')
                ++j;
            blank(i, j);
            i = j;
        } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
            std::size_t j = i + 2;
            while (j + 1 < n && !(in[j] == '*' && in[j + 1] == '/'))
                ++j;
            j = std::min(n, j + 2);
            blank(i, j);
            i = j;
        } else if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
                   (i == 0 || !isIdentChar(in[i - 1]))) {
            // Raw string: R"delim( ... )delim"
            std::size_t j = i + 2;
            std::string delim;
            while (j < n && in[j] != '(')
                delim += in[j++];
            const std::string close = ")" + delim + "\"";
            const std::size_t end = in.find(close, j);
            const std::size_t stop =
                end == std::string::npos ? n : end + close.size();
            if (!keep_strings)
                blank(i, stop);
            i = stop;
        } else if (c == '"' || c == '\'') {
            // Skip char/string literal, honouring escapes. Blank the
            // contents but keep the quotes so patterns that look for
            // a string (dup-stat) still see one.
            const char q = c;
            std::size_t j = i + 1;
            while (j < n && in[j] != q) {
                if (in[j] == '\\' && j + 1 < n)
                    ++j;
                ++j;
            }
            j = std::min(n, j + 1);
            if (!keep_strings)
                blank(i + 1, j - 1);
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

/** Find the next whole-word occurrence of @p word at or after @p from. */
std::size_t
findWord(const std::string &s, const std::string &word,
         std::size_t from)
{
    for (;;) {
        const std::size_t p = s.find(word, from);
        if (p == std::string::npos)
            return std::string::npos;
        const bool left_ok = p == 0 || !isIdentChar(s[p - 1]);
        const std::size_t after = p + word.size();
        const bool right_ok =
            after >= s.size() || !isIdentChar(s[after]);
        if (left_ok && right_ok)
            return p;
        from = p + 1;
    }
}

/** Read the identifier starting at @p i (possibly ::-qualified). */
std::string
readQualifiedIdent(const std::string &s, std::size_t i)
{
    std::string out;
    while (i < s.size()) {
        if (isIdentChar(s[i])) {
            out += s[i++];
        } else if (s[i] == ':' && i + 1 < s.size() &&
                   s[i + 1] == ':') {
            out += "::";
            i += 2;
        } else {
            break;
        }
    }
    return out;
}

/**
 * Last plain identifier in @p expr ("op->tasks_" -> "tasks_"). A
 * trailing call is resolved to its callee ("sortedKeys(dir_)" ->
 * "sortedKeys"), since iterating a function's result is not
 * iterating the argument container.
 */
std::string
trailingIdent(const std::string &expr)
{
    std::size_t end = expr.size();
    while (end > 0 && isSpace(expr[end - 1]))
        --end;
    while (end > 0 && expr[end - 1] == ')') {
        int depth = 0;
        std::size_t i = end;
        while (i > 0) {
            --i;
            if (expr[i] == ')') {
                ++depth;
            } else if (expr[i] == '(') {
                if (--depth == 0)
                    break;
            }
        }
        end = i;
        while (end > 0 && isSpace(expr[end - 1]))
            --end;
    }
    std::size_t begin = end;
    while (begin > 0 && isIdentChar(expr[begin - 1]))
        --begin;
    return expr.substr(begin, end - begin);
}

/** Skip a balanced <...> starting at the '<' at @p i; returns the
 *  index just past the matching '>', or npos on imbalance. */
std::size_t
skipAngles(const std::string &s, std::size_t i)
{
    int depth = 0;
    for (; i < s.size(); ++i) {
        if (s[i] == '<') {
            ++depth;
        } else if (s[i] == '>') {
            if (--depth == 0)
                return i + 1;
        } else if (s[i] == ';') {
            return std::string::npos;
        }
    }
    return std::string::npos;
}

/**
 * Collect names declared with std::unordered_map / std::unordered_set
 * types: "std::unordered_map<K, V> name". Declarations behind a
 * pointer/reference still count (iterating through them is just as
 * unordered). Type aliases ("using X = ...") are skipped.
 */
void
collectUnorderedNames(const std::string &code,
                      std::set<std::string> &names)
{
    for (const char *kw : {"unordered_map", "unordered_set",
                           "unordered_multimap",
                           "unordered_multiset"}) {
        std::size_t p = 0;
        while ((p = findWord(code, kw, p)) != std::string::npos) {
            std::size_t i = p + std::string(kw).size();
            p = i;
            i = skipSpace(code, i);
            if (i >= code.size() || code[i] != '<')
                continue;
            i = skipAngles(code, i);
            if (i == std::string::npos)
                continue;
            i = skipSpace(code, i);
            while (i < code.size() &&
                   (code[i] == '*' || code[i] == '&'))
                i = skipSpace(code, i + 1);
            const std::string name = readQualifiedIdent(code, i);
            if (!name.empty() && name.find("::") == std::string::npos)
                names.insert(name);
        }
    }
}

/** Collect names declared as pointers to Event types ("Event *e",
 *  "RetryEvent *ev", "auto *ev = new FooEvent"). */
void
collectEventPtrNames(const std::string &code,
                     std::set<std::string> &names)
{
    std::size_t i = 0;
    while (i < code.size()) {
        if (!isIdentChar(code[i]) ||
            (i > 0 && isIdentChar(code[i - 1]))) {
            ++i;
            continue;
        }
        const std::string ident = readQualifiedIdent(code, i);
        const std::size_t after = i + ident.size();
        i = after;
        const bool eventish =
            ident == "Event" ||
            (ident.size() > 5 &&
             ident.compare(ident.size() - 5, 5, "Event") == 0);
        if (!eventish)
            continue;
        std::size_t j = skipSpace(code, after);
        if (j >= code.size() || code[j] != '*')
            continue;
        j = skipSpace(code, j + 1);
        const std::string name = readQualifiedIdent(code, j);
        if (!name.empty())
            names.insert(name);
    }
    // auto *x = new FooEvent(...)
    std::size_t p = 0;
    while ((p = findWord(code, "auto", p)) != std::string::npos) {
        std::size_t j = skipSpace(code, p + 4);
        p += 4;
        if (j >= code.size() || code[j] != '*')
            continue;
        j = skipSpace(code, j + 1);
        const std::string name = readQualifiedIdent(code, j);
        if (name.empty())
            continue;
        j = skipSpace(code, j + name.size());
        if (j >= code.size() || code[j] != '=')
            continue;
        j = skipSpace(code, j + 1);
        if (findWord(code, "new", j) != j)
            continue;
        j = skipSpace(code, j + 3);
        const std::string type = readQualifiedIdent(code, j);
        if (type.size() > 5 &&
            type.compare(type.size() - 5, 5, "Event") == 0) {
            names.insert(name);
        }
    }
}

/** Per-run context shared across files. */
struct RunContext
{
    std::set<std::string> unordered_names;
    std::set<std::string> event_ptr_names;
};

/** Per-file suppression state parsed from directive comments. */
struct Suppressions
{
    std::set<Rule> file_allows;
    /** line number -> rules allowed on that line. */
    std::map<unsigned, std::set<Rule>> line_allows;

    bool
    allowed(Rule r, unsigned line) const
    {
        if (file_allows.count(r))
            return true;
        // A directive covers its own line and the following line.
        for (const unsigned l : {line, line > 0 ? line - 1 : 0u}) {
            const auto it = line_allows.find(l);
            if (it != line_allows.end() && it->second.count(r))
                return true;
        }
        return false;
    }
};

/** Parse "ehpsim-lint: allow(rule, ...)" / "allow-file(rule, ...)". */
Suppressions
parseSuppressions(const std::string &content)
{
    Suppressions sup;
    std::istringstream in(content);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t p = line.find("ehpsim-lint:");
        if (p == std::string::npos)
            continue;
        p += std::string("ehpsim-lint:").size();
        while (p < line.size()) {
            p = skipSpace(line, p);
            const bool file_scope =
                line.compare(p, 11, "allow-file(") == 0;
            const bool line_scope =
                !file_scope && line.compare(p, 6, "allow(") == 0;
            if (!file_scope && !line_scope)
                break;
            p = line.find('(', p) + 1;
            const std::size_t close = line.find(')', p);
            if (close == std::string::npos)
                break;
            std::string args = line.substr(p, close - p);
            std::replace(args.begin(), args.end(), ',', ' ');
            std::istringstream as(args);
            std::string name;
            while (as >> name) {
                Rule r;
                if (!parseRule(name, r))
                    continue;
                if (file_scope)
                    sup.file_allows.insert(r);
                else
                    sup.line_allows[lineno].insert(r);
            }
            p = close + 1;
        }
    }
    return sup;
}

struct FileLintState
{
    const std::string &file;
    const std::string &code;          ///< comments+strings blanked
    const std::string &code_strings;  ///< comments blanked only
    const std::vector<std::size_t> &starts;
    const RunContext &ctx;
    const Suppressions &sup;
    std::vector<Finding> &findings;

    void
    report(Rule rule, std::size_t off, std::string msg) const
    {
        const unsigned line = lineOf(starts, off);
        if (sup.allowed(rule, line))
            return;
        findings.push_back(
            Finding{file, line, rule, std::move(msg)});
    }
};

bool
pathContains(const std::string &file, const char *needle)
{
    std::string norm = file;
    std::replace(norm.begin(), norm.end(), '\\', '/');
    return norm.find(needle) != std::string::npos;
}

void
checkWallClock(const FileLintState &st)
{
    static const char *const words[] = {
        "steady_clock",    "system_clock", "high_resolution_clock",
        "clock_gettime",   "gettimeofday", "timespec_get",
        "localtime",       "gmtime",       "mktime",
        "asctime",
    };
    for (const char *w : words) {
        std::size_t p = 0;
        while ((p = findWord(st.code, w, p)) != std::string::npos) {
            st.report(Rule::wallClock, p,
                      std::string("wall-clock API '") + w +
                          "' — simulated time (EventQueue) is the "
                          "only clock; operator-facing timing goes "
                          "through sim/wall_timer.hh");
            p += std::string(w).size();
        }
    }
    // time(nullptr) / time(NULL) / time(0) and clock()
    for (const char *fn : {"time", "clock"}) {
        std::size_t p = 0;
        while ((p = findWord(st.code, fn, p)) != std::string::npos) {
            const std::size_t call = p;
            p += std::string(fn).size();
            std::size_t i = skipSpace(st.code, p);
            if (i >= st.code.size() || st.code[i] != '(')
                continue;
            i = skipSpace(st.code, i + 1);
            const std::string arg = readQualifiedIdent(st.code, i);
            const std::size_t close =
                skipSpace(st.code, i + arg.size());
            if (close >= st.code.size() || st.code[close] != ')')
                continue;
            const bool is_wall =
                std::string(fn) == "clock"
                    ? arg.empty()
                    : (arg == "nullptr" || arg == "NULL" ||
                       arg == "0");
            if (is_wall) {
                st.report(Rule::wallClock, call,
                          std::string("wall-clock call '") + fn +
                              "()' — simulated time is the only "
                              "clock; use sim/wall_timer.hh");
            }
        }
    }
}

void
checkRawRand(const FileLintState &st)
{
    static const char *const words[] = {
        "random_device", "mt19937",      "mt19937_64",
        "minstd_rand",   "minstd_rand0", "ranlux24",
        "ranlux48",      "knuth_b",      "default_random_engine",
        "drand48",       "lrand48",      "mrand48",
        "srand",         "srandom",      "rand_r",
    };
    for (const char *w : words) {
        std::size_t p = 0;
        while ((p = findWord(st.code, w, p)) != std::string::npos) {
            st.report(Rule::rawRand, p,
                      std::string("raw randomness '") + w +
                          "' — use the seeded deterministic "
                          "sim/rng.hh (Rng) so runs reproduce");
            p += std::string(w).size();
        }
    }
    for (const char *fn : {"rand", "random"}) {
        std::size_t p = 0;
        while ((p = findWord(st.code, fn, p)) != std::string::npos) {
            const std::size_t call = p;
            p += std::string(fn).size();
            std::size_t i = skipSpace(st.code, p);
            if (i < st.code.size() && st.code[i] == '(') {
                i = skipSpace(st.code, i + 1);
                if (i < st.code.size() && st.code[i] == ')') {
                    st.report(Rule::rawRand, call,
                              std::string("raw randomness '") + fn +
                                  "()' — use the seeded "
                                  "deterministic sim/rng.hh (Rng)");
                }
            }
        }
    }
}

void
checkUnorderedIter(const FileLintState &st)
{
    const std::string &code = st.code;
    // Range-for over a tracked unordered container.
    std::size_t p = 0;
    while ((p = findWord(code, "for", p)) != std::string::npos) {
        std::size_t i = skipSpace(code, p + 3);
        p += 3;
        if (i >= code.size() || code[i] != '(')
            continue;
        // Find the matching close paren.
        int depth = 0;
        std::size_t colon = std::string::npos;
        std::size_t j = i;
        for (; j < code.size(); ++j) {
            if (code[j] == '(') {
                ++depth;
            } else if (code[j] == ')') {
                if (--depth == 0)
                    break;
            } else if (code[j] == ':' && depth == 1 &&
                       colon == std::string::npos) {
                const bool scope =
                    (j + 1 < code.size() && code[j + 1] == ':') ||
                    (j > 0 && code[j - 1] == ':');
                if (!scope)
                    colon = j;
            }
        }
        if (colon == std::string::npos || j >= code.size())
            continue;
        const std::string range =
            code.substr(colon + 1, j - colon - 1);
        const std::string base = trailingIdent(range);
        if (!base.empty() && st.ctx.unordered_names.count(base)) {
            st.report(
                Rule::unorderedIter, p - 3,
                "range-for over unordered container '" + base +
                    "' — hash order is nondeterministic; traverse "
                    "sorted keys (sim/ordered.hh sortedKeys) before "
                    "anything that feeds stats, JSON, or event "
                    "scheduling");
        }
    }
    // Iterator loops: name.begin() / name.cbegin().
    for (const std::string &name : st.ctx.unordered_names) {
        std::size_t q = 0;
        while ((q = findWord(code, name, q)) != std::string::npos) {
            const std::size_t at = q;
            q += name.size();
            std::size_t i = skipSpace(code, q);
            if (i >= code.size() || code[i] != '.')
                continue;
            i = skipSpace(code, i + 1);
            const std::string member = readQualifiedIdent(code, i);
            if (member == "begin" || member == "cbegin" ||
                member == "rbegin") {
                st.report(
                    Rule::unorderedIter, at,
                    "iterator over unordered container '" + name +
                        "' — hash order is nondeterministic; "
                        "traverse sorted keys (sim/ordered.hh "
                        "sortedKeys) before anything that feeds "
                        "stats, JSON, or event scheduling");
            }
        }
    }
}

void
checkEventNew(const FileLintState &st)
{
    const std::string &code = st.code;
    std::size_t p = 0;
    while ((p = findWord(code, "new", p)) != std::string::npos) {
        std::size_t i = skipSpace(code, p + 3);
        const std::size_t at = p;
        p += 3;
        const std::string type = readQualifiedIdent(code, i);
        if (type.size() >= 5 &&
            type.compare(type.size() - 5, 5, "Event") == 0) {
            st.report(Rule::eventNew, at,
                      "raw 'new " + type +
                          "' — events are created through "
                          "EventQueue::scheduleCallback() so the "
                          "queue controls their lifetime; raw "
                          "new/delete of events caused a "
                          "use-after-free");
        }
    }
    p = 0;
    while ((p = findWord(code, "delete", p)) != std::string::npos) {
        std::size_t i = skipSpace(code, p + 6);
        const std::size_t at = p;
        p += 6;
        if (i + 1 < code.size() && code[i] == '[' &&
            code[i + 1] == ']') {
            i = skipSpace(code, i + 2);
        }
        const std::string name = readQualifiedIdent(code, i);
        const bool eventish =
            st.ctx.event_ptr_names.count(name) ||
            (name.size() >= 5 &&
             name.compare(name.size() - 5, 5, "Event") == 0);
        if (eventish) {
            st.report(Rule::eventNew, at,
                      "raw 'delete " + name +
                          "' of an event — only the EventQueue may "
                          "end an event's lifetime: it reclaims a "
                          "one-shot from EventQueue::scheduleCallback() "
                          "after it fires");
        }
    }
}

void
checkEventAlloc(const FileLintState &st)
{
    // EventQueue::scheduleCallback() builds a callable in a pooled
    // slot of inlineCallbackBytes (48); one that does not fit is
    // boxed in a std::function, which heap-allocates per schedule.
    // Flag the two boxings a reader can see at the call: a
    // std::function built or passed as the callable, and a lambda
    // with more captures than the slot holds pointers (each
    // reference, pointer or this capture takes 8 of the 48 bytes).
    constexpr int maxInlineCaptures = 6;
    const std::string &code = st.code;
    std::size_t p = 0;
    while ((p = findWord(code, "scheduleCallback", p)) !=
           std::string::npos) {
        const std::size_t at = p;
        p += std::string("scheduleCallback").size();
        const std::size_t open = skipSpace(code, p);
        if (open >= code.size() || code[open] != '(')
            continue;
        int depth = 0;
        std::size_t close = open;
        for (; close < code.size(); ++close) {
            if (code[close] == '(')
                ++depth;
            else if (code[close] == ')' && --depth == 0)
                break;
        }
        const std::string args = code.substr(open, close - open);
        if (args.find("std::function") != std::string::npos) {
            st.report(Rule::eventAlloc, at,
                      "scheduleCallback() given a std::function "
                      "heap-allocates its target per call — pass the "
                      "lambda itself, which the pool constructs "
                      "inline");
            continue;
        }
        for (std::size_t j = 0; j < args.size(); ++j) {
            if (args[j] != '[')
                continue;
            const std::size_t end = args.find(']', j);
            if (end == std::string::npos)
                break;
            // A lambda introducer is followed by its parameter list
            // or body; an array index ("arr[i]") is not.
            const std::size_t after = skipSpace(args, end + 1);
            int captures = 0;
            bool any = false;
            for (std::size_t k = j + 1; k < end; ++k) {
                if (args[k] == ',')
                    ++captures;
                else if (!isSpace(args[k]))
                    any = true;
            }
            captures += any ? 1 : 0;
            if (after < args.size() &&
                (args[after] == '(' || args[after] == '{') &&
                captures > maxInlineCaptures) {
                st.report(Rule::eventAlloc, at,
                          "scheduleCallback() with a " +
                              std::to_string(captures) +
                              "-capture lambda outgrows the pooled "
                              "slot and is boxed in a heap-allocated "
                              "std::function — capture a pointer to "
                              "one struct instead");
                break;
            }
            j = end;
        }
    }
}

void
checkDupStat(const FileLintState &st)
{
    // Occurrences of `(this, "name"` — the registration idiom for
    // all stat kinds. Two same-name registrations with no closing
    // brace between them sit in the same constructor/group.
    const std::string &code = st.code_strings;
    std::map<std::string, std::size_t> current;  // name -> first off
    std::size_t scan_from = 0;
    std::size_t p = 0;
    while ((p = findWord(code, "this", p)) != std::string::npos) {
        const std::size_t at = p;
        p += 4;
        // Previous non-space must be '('.
        std::size_t b = at;
        while (b > 0 && isSpace(code[b - 1]))
            --b;
        if (b == 0 || code[b - 1] != '(')
            continue;
        std::size_t i = skipSpace(code, at + 4);
        if (i >= code.size() || code[i] != ',')
            continue;
        i = skipSpace(code, i + 1);
        if (i >= code.size() || code[i] != '"')
            continue;
        std::size_t e = i + 1;
        while (e < code.size() && code[e] != '"') {
            if (code[e] == '\\')
                ++e;
            ++e;
        }
        const std::string name = code.substr(i + 1, e - i - 1);
        // `"ch" + std::to_string(i)` builds a computed name; the
        // literal alone says nothing about uniqueness.
        const std::size_t after_lit = skipSpace(code, e + 1);
        if (after_lit < code.size() && code[after_lit] == '+')
            continue;
        // A '}' between registrations ends the group (constructor).
        if (code.find('}', scan_from) != std::string::npos &&
            code.find('}', scan_from) < at) {
            current.clear();
        }
        scan_from = at;
        const auto [it, inserted] = current.emplace(name, at);
        if (!inserted) {
            st.report(Rule::dupStat, at,
                      "stat name \"" + name +
                          "\" registered more than once in the same "
                          "group — stat paths must be unique "
                          "(first registration at line " +
                          std::to_string(lineOf(st.starts,
                                                it->second)) +
                          ")");
        }
    }
}

void
checkSnapshotPair(const FileLintState &st)
{
    // The checkpoint walk (DESIGN.md §16) has no framing between
    // objects: SnapshotWriter and SnapshotReader must visit the
    // exact same record sequence, so a class overriding only one of
    // snapshot(SnapshotWriter&) / restore(SnapshotReader&) desyncs
    // the stream for everything serialized after it — the restore
    // either fatals at the next tag mismatch or silently reads the
    // wrong bytes. Flag the class declaration.
    const std::string &code = st.code;
    for (const char *kw : {"class", "struct"}) {
        std::size_t p = 0;
        while ((p = findWord(code, kw, p)) != std::string::npos) {
            const std::size_t at = p;
            p += std::string(kw).size();
            std::size_t i = skipSpace(code, p);
            const std::string cname = readQualifiedIdent(code, i);
            if (cname.empty())
                continue;
            // Only a definition: the name is followed by its base
            // list or body. Forward declarations (';'), template
            // parameters ("class T>"), and elaborated type uses all
            // drop out here.
            std::size_t after = skipSpace(code, i + cname.size());
            if (after >= code.size() ||
                (code[after] != '{' && code[after] != ':'))
                continue;
            std::size_t open = code.find('{', after);
            if (open == std::string::npos)
                continue;
            int depth = 0;
            std::size_t end = open;
            for (; end < code.size(); ++end) {
                if (code[end] == '{') {
                    ++depth;
                } else if (code[end] == '}') {
                    if (--depth == 0)
                        break;
                }
            }
            const auto declares = [&](const std::string &fn,
                                      const std::string &arg) {
                std::size_t q = open;
                while ((q = findWord(code, fn, q)) !=
                           std::string::npos &&
                       q < end) {
                    std::size_t k = skipSpace(code, q + fn.size());
                    if (k < end && code[k] == '(') {
                        const std::size_t close = code.find(')', k);
                        if (close != std::string::npos &&
                            close < end &&
                            code.find(arg, k) < close)
                            return true;
                    }
                    q += fn.size();
                }
                return false;
            };
            const bool snap = declares("snapshot", "SnapshotWriter");
            const bool rest = declares("restore", "SnapshotReader");
            if (snap != rest) {
                st.report(Rule::snapshotPair, at,
                          "class '" + cname + "' declares " +
                              (snap ? "snapshot(SnapshotWriter&) "
                                      "without restore("
                                      "SnapshotReader&)"
                                    : "restore(SnapshotReader&) "
                                      "without snapshot("
                                      "SnapshotWriter&)") +
                              " — the checkpoint stream has no "
                              "framing, so a one-sided override "
                              "desyncs every object serialized "
                              "after this one");
            }
        }
    }
}

void
checkFloatArith(const FileLintState &st)
{
    std::size_t p = 0;
    while ((p = findWord(st.code, "float", p)) !=
           std::string::npos) {
        st.report(Rule::floatArith, p,
                  "'float' in simulation code — time, bandwidth, "
                  "and energy arithmetic uses double throughout; "
                  "float rounding breaks tick math and cross-build "
                  "determinism");
        p += 5;
    }
}

void
checkChunkAlloc(const FileLintState &st)
{
    const std::string &code = st.code;
    // Collect the body extent of every for/while loop.
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (const char *kw : {"for", "while"}) {
        std::size_t p = 0;
        while ((p = findWord(code, kw, p)) != std::string::npos) {
            p += std::string(kw).size();
            std::size_t i = skipSpace(code, p);
            if (i >= code.size() || code[i] != '(')
                continue;
            int depth = 0;
            std::size_t j = i;
            for (; j < code.size(); ++j) {
                if (code[j] == '(') {
                    ++depth;
                } else if (code[j] == ')') {
                    if (--depth == 0)
                        break;
                }
            }
            if (j >= code.size())
                continue;
            const std::size_t b = skipSpace(code, j + 1);
            if (b >= code.size() || code[b] != '{')
                continue;
            int bd = 0;
            std::size_t e = b;
            for (; e < code.size(); ++e) {
                if (code[e] == '{') {
                    ++bd;
                } else if (code[e] == '}') {
                    if (--bd == 0)
                        break;
                }
            }
            if (e < code.size())
                bodies.emplace_back(b, e);
        }
    }
    if (bodies.empty())
        return;
    // By-value `vector<...> name` declarations inside a body: one
    // heap allocation (or more) per loop iteration. References,
    // pointers, and non-declaration uses are fine.
    std::size_t q = 0;
    while ((q = findWord(code, "vector", q)) != std::string::npos) {
        const std::size_t at = q;
        q += std::string("vector").size();
        bool in_loop = false;
        for (const auto &[b, e] : bodies) {
            if (at > b && at < e) {
                in_loop = true;
                break;
            }
        }
        if (!in_loop)
            continue;
        std::size_t k = skipSpace(code, q);
        if (k >= code.size() || code[k] != '<')
            continue;
        k = skipAngles(code, k);
        if (k == std::string::npos)
            continue;
        k = skipSpace(code, k);
        if (k < code.size() && (code[k] == '*' || code[k] == '&'))
            continue;       // no per-iteration buffer
        const std::string name = readQualifiedIdent(code, k);
        if (name.empty() || name.find("::") != std::string::npos)
            continue;
        // Declarations end in `= ... ;`, `;`, `(...)`, or `{...}`;
        // anything else ("vector<T>::iterator", a template argument)
        // is not a construction.
        const std::size_t after = skipSpace(code, k + name.size());
        if (after >= code.size())
            continue;
        const char c = code[after];
        if (c != '=' && c != ';' && c != '(' && c != '{')
            continue;
        st.report(Rule::chunkAlloc, at,
                  "std::vector '" + name +
                      "' constructed inside a loop body — collective "
                      "construction is the per-chunk hot path; use a "
                      "closed-form count (ChunkSpan) or a reused "
                      "scratch member (DESIGN.md §12)");
    }
}

void
checkStaticState(const FileLintState &st)
{
    const std::string &code = st.code;
    for (const char *kw : {"static", "thread_local"}) {
        std::size_t p = 0;
        while ((p = findWord(code, kw, p)) != std::string::npos) {
            const std::size_t at = p;
            p += std::string(kw).size();

            // `const static int x` — a const-qualifier before the
            // keyword still makes the object immutable.
            std::size_t back = at;
            while (back > 0 && isSpace(code[back - 1]))
                --back;
            std::size_t wb = back;
            while (wb > 0 && isIdentChar(code[wb - 1]))
                --wb;
            const std::string before = code.substr(wb, back - wb);
            if (before == "const" || before == "constexpr" ||
                before == "constinit") {
                continue;
            }

            // Walk the declaration tokens up to the declarator.
            // Qualifiers anywhere make it immutable; a declarator
            // followed by '(' is a function (or a direct-init
            // variable — a documented imprecision the allow()
            // hatch covers).
            std::size_t i = skipSpace(code, p);
            bool immutable = false;
            std::string name;
            while (i < code.size()) {
                const char c = code[i];
                if (c == '<') {
                    const std::size_t past = skipAngles(code, i);
                    if (past == std::string::npos)
                        break;
                    i = skipSpace(code, past);
                } else if (isIdentChar(c)) {
                    const std::string tok =
                        readQualifiedIdent(code, i);
                    i = skipSpace(code, i + tok.size());
                    if (tok == "const" || tok == "constexpr" ||
                        tok == "constinit") {
                        immutable = true;
                    } else if (tok != "inline" && tok != "static" &&
                               tok != "thread_local" &&
                               tok != "struct" && tok != "class" &&
                               tok != "unsigned" && tok != "signed" &&
                               tok != "long" && tok != "short") {
                        name = tok;
                    }
                } else if (c == '*' || c == '&') {
                    i = skipSpace(code, i + 1);
                } else {
                    break;
                }
            }
            if (immutable || name.empty() || i >= code.size())
                continue;
            const char next = code[i];
            if (next == '(')
                continue;       // function declaration
            if (next != '=' && next != ';' && next != '{' &&
                next != '[') {
                continue;       // not a declaration we understand
            }
            st.report(Rule::staticState, at,
                      "mutable " + std::string(kw) + " state '" +
                          name +
                          "' — state outside the SimObject tree "
                          "leaks between sweep jobs and races under "
                          "parallel workers; make it a member, pass "
                          "it explicitly, or const-qualify it");
        }
    }
}

void
checkPointerKey(const FileLintState &st)
{
    const std::string &code = st.code;
    for (const char *kw : {"map", "multimap", "set", "multiset"}) {
        const bool is_map =
            std::string(kw) == "map" || std::string(kw) == "multimap";
        std::size_t p = 0;
        while ((p = findWord(code, kw, p)) != std::string::npos) {
            const std::size_t at = p;
            p += std::string(kw).size();
            std::size_t i = skipSpace(code, p);
            if (i >= code.size() || code[i] != '<')
                continue;
            // The key type runs to the first depth-1 comma (map)
            // or the closing angle (set).
            std::size_t key_end = std::string::npos;
            int depth = 0;
            std::size_t j = i;
            for (; j < code.size(); ++j) {
                const char c = code[j];
                if (c == '<') {
                    ++depth;
                } else if (c == '>') {
                    if (--depth == 0) {
                        if (!is_map)
                            key_end = j;
                        break;
                    }
                } else if (c == ',' && depth == 1 && is_map) {
                    key_end = j;
                    break;
                } else if (c == ';') {
                    break;
                }
            }
            if (key_end == std::string::npos)
                continue;
            std::string key = code.substr(i + 1, key_end - i - 1);
            if (key.find('*') == std::string::npos)
                continue;
            // Keep the message single-line for the "file:line:rule:
            // message" output contract.
            std::replace(key.begin(), key.end(), '\n', ' ');
            st.report(
                Rule::pointerKey, at,
                "ordered container '" + std::string(kw) +
                    "' keyed by a raw pointer (" + key +
                    ") — pointer order is allocator-dependent, so "
                    "iteration order varies run to run; key by a "
                    "stable id or name (or allow() with a "
                    "deterministic custom comparator)");
        }
    }
}

void
lintOne(const std::string &file, const std::string &content,
        const RunContext &ctx, const Options &opts,
        std::vector<Finding> &findings)
{
    const Suppressions sup = parseSuppressions(content);
    const std::string code = stripSource(content, false);
    const std::string code_strings = stripSource(content, true);
    const std::vector<std::size_t> starts = lineStarts(content);
    const FileLintState st{file,    code, code_strings, starts,
                           ctx,     sup,  findings};

    auto enabled = [&](Rule r) {
        if (!opts.only_rules.empty() &&
            std::find(opts.only_rules.begin(), opts.only_rules.end(),
                      r) == opts.only_rules.end()) {
            return false;
        }
        if (!opts.default_whitelist)
            return true;
        if ((r == Rule::wallClock || r == Rule::rawRand) &&
            (pathContains(file, "sim/wall_timer") ||
             pathContains(file, "sim/rng"))) {
            return false;
        }
        if ((r == Rule::eventNew || r == Rule::eventAlloc) &&
            pathContains(file, "sim/event_queue")) {
            return false;
        }
        // Per-iteration vectors are ordinary C++ almost everywhere;
        // only the collective-construction hot path bans them.
        if (r == Rule::chunkAlloc && !pathContains(file, "comm/"))
            return false;
        // The race tracker's thread-local current-tracker binding is
        // the sanctioned piece of non-member state (one per worker
        // thread, never shared).
        if (r == Rule::staticState &&
            pathContains(file, "sim/access_tracker")) {
            return false;
        }
        // The kernel's own pair is save()/restore() — EventQueue
        // restores through the keyed-factory registry, not the
        // StatGroup walk — so its one-sided restore() is by design.
        if (r == Rule::snapshotPair &&
            pathContains(file, "sim/event_queue")) {
            return false;
        }
        return true;
    };

    if (enabled(Rule::wallClock))
        checkWallClock(st);
    if (enabled(Rule::rawRand))
        checkRawRand(st);
    if (enabled(Rule::unorderedIter))
        checkUnorderedIter(st);
    if (enabled(Rule::eventNew))
        checkEventNew(st);
    if (enabled(Rule::eventAlloc))
        checkEventAlloc(st);
    if (enabled(Rule::dupStat))
        checkDupStat(st);
    if (enabled(Rule::floatArith))
        checkFloatArith(st);
    if (enabled(Rule::chunkAlloc))
        checkChunkAlloc(st);
    if (enabled(Rule::staticState))
        checkStaticState(st);
    if (enabled(Rule::pointerKey))
        checkPointerKey(st);
    if (enabled(Rule::snapshotPair))
        checkSnapshotPair(st);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // anonymous namespace

const char *
ruleName(Rule r)
{
    switch (r) {
      case Rule::wallClock:
        return "wall-clock";
      case Rule::rawRand:
        return "raw-rand";
      case Rule::unorderedIter:
        return "unordered-iter";
      case Rule::eventNew:
        return "event-new";
      case Rule::eventAlloc:
        return "event-alloc";
      case Rule::dupStat:
        return "dup-stat";
      case Rule::floatArith:
        return "float-arith";
      case Rule::chunkAlloc:
        return "chunk-alloc";
      case Rule::staticState:
        return "static-state";
      case Rule::pointerKey:
        return "pointer-key";
      case Rule::snapshotPair:
        return "snapshot-pair";
    }
    return "unknown";
}

bool
parseRule(const std::string &name, Rule &out)
{
    for (const Rule r : allRules()) {
        if (name == ruleName(r)) {
            out = r;
            return true;
        }
    }
    return false;
}

const std::vector<Rule> &
allRules()
{
    static const std::vector<Rule> rules = {
        Rule::wallClock,  Rule::rawRand,    Rule::unorderedIter,
        Rule::eventNew,   Rule::eventAlloc,
        Rule::dupStat,    Rule::floatArith, Rule::chunkAlloc,
        Rule::staticState, Rule::pointerKey, Rule::snapshotPair,
    };
    return rules;
}

const char *
ruleRationale(Rule r)
{
    switch (r) {
      case Rule::wallClock:
        return "simulated time is the only clock; wall-clock reads "
               "make runs irreproducible (whitelist: sim/wall_timer)";
      case Rule::rawRand:
        return "all randomness flows from a seed through sim/rng.hh "
               "so any run can be replayed (whitelist: sim/rng)";
      case Rule::unorderedIter:
        return "hash-order iteration is nondeterministic; anything "
               "feeding stats, JSON, or event scheduling must "
               "traverse in sorted order";
      case Rule::eventNew:
        return "events are created and destroyed only through "
               "EventQueue paths; raw new/delete of events caused a "
               "use-after-free (whitelist: sim/event_queue)";
      case Rule::eventAlloc:
        return "EventQueue::scheduleCallback() constructs a callable "
               "in a pooled 48-byte slot; a std::function argument "
               "or a lambda of more than 6 captures is boxed in a "
               "heap-allocated std::function per call (whitelist: "
               "sim/event_queue)";
      case Rule::dupStat:
        return "a stat name may register only once per group, or "
               "dump output silently aliases two counters";
      case Rule::floatArith:
        return "time/bandwidth/energy math uses double; float "
               "rounding breaks tick arithmetic";
      case Rule::chunkAlloc:
        return "collective construction runs per chunk; a "
               "std::vector built inside a loop allocates every "
               "iteration — use closed-form counts or reused "
               "scratch buffers (applies to comm/ paths)";
      case Rule::staticState:
        return "mutable globals / function-static locals live "
               "outside the SimObject tree: they leak between sweep "
               "jobs and race under parallel workers (whitelist: "
               "sim/access_tracker)";
      case Rule::pointerKey:
        return "ordered containers keyed by raw pointers iterate in "
               "allocator-dependent order; key by a stable id or "
               "name instead";
      case Rule::snapshotPair:
        return "the checkpoint stream has no framing between "
               "objects: a class overriding only one of "
               "snapshot(SnapshotWriter&)/restore(SnapshotReader&) "
               "desyncs every object serialized after it "
               "(whitelist: sim/event_queue)";
    }
    return "";
}

std::string
toString(const Finding &f)
{
    std::ostringstream os;
    os << f.file << ":" << f.line << ":" << ruleName(f.rule) << ": "
       << f.message;
    return os.str();
}

namespace
{

/** Minimal JSON string escaping (the linter is dependency-free and
 *  does not link the simulator's json library). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // anonymous namespace

std::string
toJson(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"ehpsim-lint-v1\",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? ",\n" : "\n")
           << "    {\n"
           << "      \"file\": \"" << jsonEscape(f.file) << "\",\n"
           << "      \"line\": " << f.line << ",\n"
           << "      \"rule\": \"" << ruleName(f.rule) << "\",\n"
           << "      \"message\": \"" << jsonEscape(f.message)
           << "\"\n"
           << "    }";
    }
    os << (findings.empty() ? "" : "\n  ") << "],\n  \"count\": "
       << findings.size() << "\n}\n";
    return os.str();
}

bool
listSources(const std::vector<std::string> &paths,
            std::vector<std::string> &out, std::string &error)
{
    namespace fs = std::filesystem;
    static const std::set<std::string> exts = {".hh", ".h", ".hpp",
                                               ".cc", ".cpp"};
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            out.push_back(p);
        } else if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                if (ec) {
                    error = "cannot walk '" + p + "': " + ec.message();
                    return false;
                }
                if (it->is_regular_file() &&
                    exts.count(it->path().extension().string())) {
                    out.push_back(it->path().string());
                }
            }
        } else {
            error = "no such file or directory: '" + p + "'";
            return false;
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return true;
}

std::vector<Finding>
lintFiles(const std::vector<std::string> &files, const Options &opts)
{
    // Pass 1: declarations. Member containers are usually declared
    // in a header and iterated in the matching .cc, so the name
    // table is shared across the whole run.
    RunContext ctx;
    std::vector<std::pair<std::string, std::string>> contents;
    contents.reserve(files.size());
    for (const std::string &f : files) {
        std::string text;
        if (!readFile(f, text))
            continue;
        const std::string code = stripSource(text, false);
        collectUnorderedNames(code, ctx.unordered_names);
        collectEventPtrNames(code, ctx.event_ptr_names);
        contents.emplace_back(f, std::move(text));
    }
    // Pass 2: rules.
    std::vector<Finding> findings;
    for (const auto &[f, text] : contents)
        lintOne(f, text, ctx, opts, findings);
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return static_cast<int>(a.rule) <
                         static_cast<int>(b.rule);
              });
    return findings;
}

std::vector<Finding>
lintContent(const std::string &filename, const std::string &content,
            const Options &opts)
{
    RunContext ctx;
    const std::string code = stripSource(content, false);
    collectUnorderedNames(code, ctx.unordered_names);
    collectEventPtrNames(code, ctx.event_ptr_names);
    std::vector<Finding> findings;
    lintOne(filename, content, ctx, opts, findings);
    return findings;
}

} // namespace lint
} // namespace ehpsim
