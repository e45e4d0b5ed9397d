#!/usr/bin/env python3
"""Tests of the perfbench harness itself.

    python3 perfbench/test_run.py

Builds the driver into the benchmark's build directory if needed (as
run.py does) and takes about a minute: the profile-attribution rule, its
self-check against the driver's real symbols, BENCHMARK.json agreeing with
the harness, the known 128-node abort landing in the failure accounting,
and one short end-to-end invocation obeying the output contract.
"""

import contextlib
import io
import json
import time
import unittest

import run


class LayerAttribution(unittest.TestCase):
    CASES = {
        # std:: instantiations go to their owner.
        "void std::__insertion_sort<__gnu_cxx::__normal_iterator<repseq::tmk::DiffPacket*, "
        "std::vector<repseq::tmk::DiffPacket, std::allocator<repseq::tmk::DiffPacket> > >, "
        "__gnu_cxx::__ops::_Iter_comp_iter<repseq::tmk::NodeRuntime::apply_packets_causally("
        "std::vector<repseq::tmk::DiffPacket, std::allocator<repseq::tmk::DiffPacket> >, bool)"
        "::{lambda(repseq::tmk::DiffPacket const&, repseq::tmk::DiffPacket const&)#1}> >("
        "__gnu_cxx::__normal_iterator<repseq::tmk::DiffPacket*, std::vector<repseq::tmk::"
        "DiffPacket, std::allocator<repseq::tmk::DiffPacket> > >)": "tmk",
        "std::vector<repseq::net::Message, std::allocator<repseq::net::Message> >::"
        "_M_realloc_insert(repseq::net::Message&&)": "net",
        # A body passed through std::function<void(const ompnow::Ctx&)> is
        # its enclosing function's, not ompnow's.
        "std::_Function_handler<void (repseq::ompnow::Ctx const&), repseq::apps::bh::run_steps("
        "repseq::tmk::Cluster&, repseq::ompnow::Team&, repseq::apps::bh::BhWorld const&, "
        "repseq::apps::bh::BhConfig const&)::{lambda(repseq::ompnow::Ctx const&)#1}>::_M_invoke("
        "std::_Any_data const&, repseq::ompnow::Ctx const&)": "apps",
        "std::_Function_handler<void (repseq::tmk::NodeRuntime&), repseq::rse::RseController::"
        "exit(repseq::tmk::NodeRuntime&) const::{lambda(repseq::tmk::NodeRuntime&)#1}>::"
        "_M_invoke(std::_Any_data const&, repseq::tmk::NodeRuntime&)": "rse",
        # repseq code, with a template return type in front and lambdas inside.
        "void repseq::tmk::NodeRuntime::send_unicast<repseq::net::Message>(repseq::tmk::MsgKind, "
        "unsigned int, repseq::net::Message, bool)": "tmk",
        "repseq::rse::RseController::enter(repseq::tmk::NodeRuntime&)::{lambda()#1}::"
        "operator()() const": "rse",
        "repseq::rse::policy::PolicyEngine::open_section(repseq::tmk::NodeRuntime&, "
        "unsigned int)": "rse.policy",
        "repseq::apps::ilink::run_program(repseq::tmk::Cluster&, repseq::ompnow::Team&, "
        "repseq::apps::ilink::IlinkWorld const&, repseq::apps::ilink::IlinkConfig const&)": "apps",
        "repseq::util::PoolPtr<repseq::tmk::Diff>::~PoolPtr()": "util",
        "repseq_ctx_swap": "sim",
        # Unowned.
        "operator new(unsigned long)": "other",
        "perfbench::(anonymous namespace)::run(perfbench::(anonymous namespace)::Options "
        "const&)": "other",
        "(outside the driver binary)": "other",
    }

    def test_rule(self):
        for symbol, layer in self.CASES.items():
            with self.subTest(symbol=symbol[:60]):
                self.assertEqual(run.layer_of(symbol), layer)

    def test_self_check_on_driver_symbols(self):
        """Every symbol of the real binary maps to exactly one known layer,
        and the two instantiation kinds the rule exists for resolve to their
        owners there too."""
        syms = run.Symbols(run.build()).syms
        layers = {name: run.layer_of(name) for _, _, name in syms}
        self.assertTrue(set(layers.values()) <= set(run.LAYERS))
        sorts = [n for n in layers if "__insertion_sort" in n and "apply_packets_causally" in n]
        bodies = [n for n in layers
                  if n.startswith("std::_Function_handler<void (repseq::ompnow::Ctx const&), "
                                  "repseq::apps::")]
        self.assertTrue(sorts and bodies)
        self.assertEqual({layers[n] for n in sorts}, {"tmk"})
        self.assertEqual({layers[n] for n in bodies}, {"apps"})
        for layer in ("sim", "net", "tmk", "rse", "rse.policy", "ompnow", "apps", "chk", "obs"):
            self.assertIn(layer, layers.values())


class BenchmarkJson(unittest.TestCase):
    def test_agrees_with_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class KnownAbort(unittest.TestCase):
    def test_128_node_abort_is_counted_not_fatal(self):
        """Ilink in Mode::Original aborts at 128 nodes with the default
        request_timeout ("diff request retries exhausted", page 13).  The
        aborting children land in the failure accounting; the harness
        itself carries on."""
        runner = run.Runner(run.build(), "ilink-base", time.monotonic() + 120, nodes=128)
        reference = run.reference_run(runner)
        self.assertIsNotNone(reference)
        runs = run.timed_runs(runner, reference, seconds=0)
        self.assertEqual(runs, [])
        self.assertEqual(runner.attempted, 1 + run.MIN_TIMED_RUNS)
        self.assertEqual(len(runner.failures), run.MIN_TIMED_RUNS)
        for f in runner.failures:
            self.assertIn("retries exhausted for page 13", f)


class OutputContract(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "ilink-replicated", "--seed", "3", "--seconds", "0",
                             "--trace", "0"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        for v in result["metrics"].values():
            self.assertGreater(v["value"], 0)


if __name__ == "__main__":
    unittest.main()
