"""RL006/RL007/RL008 — seeded fixture violations and clean counterparts.

The fixtures shadow the registered module names (``serving/scheduler.py``
etc. under the temp tree), so the *default* declarative model drives the
rules exactly as it does on the real tree.
"""

from __future__ import annotations

from repro.analysis.lint import (
    ConditionHygieneRule,
    GuardedAttributeRule,
    LockOrderingRule,
)

from tests.analysis.lint.conftest import codes, messages


class TestGuardedAttributes:
    def test_unlocked_write_fires(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def poke(self):\n"
                  "        self._running = False\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006"]
        assert "_running" in messages(report)[0]
        assert "self._cond" in messages(report)[0]

    def test_unlocked_rmw_fires(self, lint_tree):
        # The pre-fix _dispatch bug class: counter bump outside the lock.
        source = ("class MicroBatcher:\n"
                  "    def bump(self):\n"
                  "        self.batches_formed += 1\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006"]

    def test_unlocked_mutating_call_fires(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def push(self, item):\n"
                  "        self._queue.append(item)\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006"]

    def test_locked_write_is_clean(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def poke(self):\n"
                  "        with self._cond:\n"
                  "            self._running = False\n"
                  "            self._queue.append(1)\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert report.ok

    def test_init_is_exempt(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def __init__(self):\n"
                  "        self._queue = []\n"
                  "        self._running = False\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert report.ok

    def test_caller_locked_method_is_exempt(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def _form_batch(self):\n"
                  "        self.batches_formed += 1\n"
                  "        del self._queue[:2]\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert report.ok

    def test_wrong_lock_fires_and_names_both(self, lint_tree):
        source = ("class InferenceService:\n"
                  "    def swap(self, members):\n"
                  "        with self._stats_lock:\n"
                  "            self.members = members\n")
        report = lint_tree({"serving/service.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006"]
        assert "_swap_lock" in messages(report)[0]

    def test_externally_guarded_class_confined(self, lint_tree):
        # AdmissionController state may only move in observe/admit.
        source = ("class AdmissionController:\n"
                  "    def reset(self):\n"
                  "        self.shedding = False\n"
                  "    def observe(self, sojourn, now):\n"
                  "        self.shedding = True\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006"]
        assert "scheduler.cond" in messages(report)[0]

    def test_thread_local_module_mutable_global_fires(self, lint_tree):
        source = ("state = {}\n"           # registered container name: ok
                  "_shared = {}\n"         # shared mutable: flagged
                  "def grow():\n"
                  "    global _shared\n"   # rebinding: flagged
                  "    _shared = {}\n")
        report = lint_tree({"ops/modes.py": source},
                           [GuardedAttributeRule()])
        assert codes(report) == ["RL006", "RL006"]

    def test_suppression_silences_a_benign_race(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def poke(self):\n"
                  "        self._running = False  "
                  "# repro-lint: disable=RL006 (fixture)\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [GuardedAttributeRule()])
        assert report.ok
        assert [v.code for v in report.suppressed] == ["RL006"]


class TestLockOrdering:
    def test_inverted_nesting_fires(self, lint_tree):
        source = ("class InferenceService:\n"
                  "    def bad(self):\n"
                  "        with self._stats_lock:\n"
                  "            with self._swap_lock:\n"
                  "                pass\n")
        report = lint_tree({"serving/service.py": source},
                           [LockOrderingRule()])
        assert "RL007" in codes(report)
        text = " ".join(messages(report))
        assert "service.swap" in text and "service.stats" in text

    def test_declared_nesting_is_clean(self, lint_tree):
        source = ("class InferenceService:\n"
                  "    def good(self):\n"
                  "        with self._swap_lock:\n"
                  "            with self._stats_lock:\n"
                  "                pass\n")
        report = lint_tree({"serving/service.py": source},
                           [LockOrderingRule()])
        assert report.ok

    def test_cycle_reported_via_scc(self, lint_tree):
        source = ("class InferenceService:\n"
                  "    def one(self):\n"
                  "        with self._swap_lock:\n"
                  "            with self._stats_lock:\n"
                  "                pass\n"
                  "    def two(self):\n"
                  "        with self._stats_lock:\n"
                  "            with self._swap_lock:\n"
                  "                pass\n")
        report = lint_tree({"serving/service.py": source},
                           [LockOrderingRule()])
        text = " ".join(messages(report))
        assert "cycle" in text and "deadlock" in text

    def test_call_edge_same_lock_nesting_fires(self, lint_tree):
        source = ("class MicroBatcher:\n"
                  "    def _locked_helper(self):\n"
                  "        with self._cond:\n"
                  "            pass\n"
                  "    def bad(self):\n"
                  "        with self._cond:\n"
                  "            self._locked_helper()\n")
        report = lint_tree({"serving/scheduler.py": source},
                           [LockOrderingRule()])
        assert codes(report) == ["RL007"]
        assert "may not nest" in messages(report)[0]

    def test_caller_locked_method_contributes_held_lock(self, lint_tree):
        # _form_batch runs under scheduler.cond (rank 60, innermost):
        # acquiring anything below it from there runs against the order.
        source = ("class MicroBatcher:\n"
                  "    def _form_batch(self):\n"
                  "        with self._aux:\n"
                  "            pass\n"
                  "class InferenceService:\n"
                  "    def fine(self):\n"
                  "        pass\n")
        from repro.concurrency.model import LOCKS, LockSpec
        locks = dict(LOCKS)
        locks["aux"] = LockSpec("aux", 5, "repro.serving.scheduler",
                                "MicroBatcher", "_aux")
        report = lint_tree({"serving/scheduler.py": source},
                           [LockOrderingRule(locks=locks)])
        assert "RL007" in codes(report)
        assert "scheduler.cond" in " ".join(messages(report))

    def test_suppression_silences_a_known_edge(self, lint_tree):
        source = ("class InferenceService:\n"
                  "    def bad(self):\n"
                  "        with self._stats_lock:\n"
                  "            # repro-lint: disable=RL007 (fixture)\n"
                  "            with self._swap_lock:\n"
                  "                pass\n")
        report = lint_tree({"serving/service.py": source},
                           [LockOrderingRule()])
        assert report.ok
        assert [v.code for v in report.suppressed] == ["RL007"]


class TestConditionHygiene:
    GOOD = ("import threading\n"
            "class Worker:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
            "        self._ready = False\n"
            "    def consume(self):\n"
            "        with self._cond:\n"
            "            while not self._ready:\n"
            "                self._cond.wait()\n"
            "    def check(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait_for(lambda: self._ready)\n"
            "    def produce(self):\n"
            "        with self._cond:\n"
            "            self._ready = True\n"
            "            self._cond.notify_all()\n")

    def test_by_the_book_usage_is_clean(self, lint_tree):
        report = lint_tree({"core/worker.py": self.GOOD},
                           [ConditionHygieneRule()])
        assert report.ok

    def test_bare_wait_without_while_fires(self, lint_tree):
        source = ("import threading\n"
                  "class Worker:\n"
                  "    def __init__(self):\n"
                  "        self._cond = threading.Condition()\n"
                  "    def consume(self):\n"
                  "        with self._cond:\n"
                  "            self._cond.wait()\n")
        report = lint_tree({"core/worker.py": source},
                           [ConditionHygieneRule()])
        assert codes(report) == ["RL008"]
        assert "while" in messages(report)[0]

    def test_wait_outside_with_fires(self, lint_tree):
        source = ("import threading\n"
                  "class Worker:\n"
                  "    def __init__(self):\n"
                  "        self._cond = threading.Condition()\n"
                  "    def consume(self):\n"
                  "        self._cond.wait()\n")
        report = lint_tree({"core/worker.py": source},
                           [ConditionHygieneRule()])
        assert codes(report) == ["RL008"]

    def test_notify_outside_with_fires(self, lint_tree):
        source = ("import threading\n"
                  "class Worker:\n"
                  "    def __init__(self):\n"
                  "        self._cond = threading.Condition()\n"
                  "    def produce(self):\n"
                  "        self._cond.notify()\n")
        report = lint_tree({"core/worker.py": source},
                           [ConditionHygieneRule()])
        assert codes(report) == ["RL008"]
        assert "notify" in messages(report)[0]

    def test_tracked_condition_factory_is_recognised(self, lint_tree):
        source = ("from repro.concurrency import tracked_condition\n"
                  "class Worker:\n"
                  "    def __init__(self):\n"
                  "        self._cond = tracked_condition('scheduler.cond')\n"
                  "    def produce(self):\n"
                  "        self._cond.notify()\n")
        report = lint_tree({"core/worker.py": source},
                           [ConditionHygieneRule()])
        assert codes(report) == ["RL008"]

    def test_non_condition_attributes_are_ignored(self, lint_tree):
        source = ("class Worker:\n"
                  "    def consume(self):\n"
                  "        self._queue.wait()\n")
        report = lint_tree({"core/worker.py": source},
                           [ConditionHygieneRule()])
        assert report.ok
