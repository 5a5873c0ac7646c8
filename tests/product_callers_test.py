#!/usr/bin/env python3
"""Self-test of tools/product_callers.py's comparison step.

Runs `product_callers.py compare` on the small symbol listings in
tests/product_callers/ (no build): a clean listing passes, an
unreached function missing from the allowlist fails and is named, and
a stale allowlist entry (gone, or now reached) fails and is named.
"""

import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "product_callers.py")
DATA = os.path.join(ROOT, "tests", "product_callers")

sys.path.insert(0, os.path.dirname(TOOL))
import product_callers  # noqa: E402


def compare(library, allowlist):
    """Run the comparison as CI does; return (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, TOOL, "compare",
         os.path.join(DATA, library), os.path.join(DATA, "reached.txt"),
         os.path.join(DATA, allowlist)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout


class Compare(unittest.TestCase):
    def test_listing_passes(self):
        code, out = compare("library.txt", "allow.txt")
        self.assertEqual(code, 0, out)
        self.assertIn("7 src/ functions, 3 in no product binary", out)
        self.assertIn("PASS", out)

    def test_unlisted_unreached_function_fails_and_is_named(self):
        code, out = compare("library_unlisted.txt", "allow.txt")
        self.assertEqual(code, 1, out)
        fails = [l for l in out.splitlines() if "FAIL" in l]
        self.assertEqual(len(fails), 1, out)
        self.assertIn("ehpsim::demo::Widget::unusedHelper: in no "
                      "product binary", fails[0])

    def test_stale_allowlist_entries_fail_and_are_named(self):
        code, out = compare("library.txt", "allow_stale.txt")
        self.assertEqual(code, 1, out)
        fails = [l for l in out.splitlines() if "FAIL" in l]
        self.assertEqual(len(fails), 2, out)
        self.assertIn("ehpsim::demo::Widget::deletedLongAgo: stale "
                      "allowlist entry, no longer in src/", out)
        self.assertIn("ehpsim::demo::widgetName: stale allowlist "
                      "entry, now reached by a product binary", out)


class FunctionKey(unittest.TestCase):
    def test_strips_parameters_tags_and_keeps_operators(self):
        key = product_callers.function_key
        self.assertEqual(key("ehpsim::a::f(int, std::vector<int> "
                             "const&) const"), "ehpsim::a::f")
        self.assertEqual(key("ehpsim::a::name[abi:cxx11](int)"),
                         "ehpsim::a::name")
        self.assertEqual(key("ehpsim::A::operator<(ehpsim::A const&) "
                             "const"), "ehpsim::A::operator<")
        self.assertEqual(key("ehpsim::A::operator()(int)"),
                         "ehpsim::A::operator()")
        self.assertEqual(key("ehpsim::(anonymous namespace)::g(int)"),
                         "ehpsim::(anonymous namespace)::g")
        self.assertEqual(key("ehpsim::h<int>(int)"), "ehpsim::h<int>")


if __name__ == "__main__":
    unittest.main()
