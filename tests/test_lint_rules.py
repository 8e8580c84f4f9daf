"""Per-rule fixtures for repro.lint: every rule must fire on its
known-bad snippet and stay silent on the idiomatic repo pattern.

The fixtures mirror real shapes from ``src/repro`` — the good snippets
are distilled from :mod:`repro.convolution.bitops` and
:mod:`repro.parallel.engine`, so a rule change that would start flagging
the production idioms fails here first.
"""

from repro.lint import FileContext, lint_sources

REGISTRY_MODULE = '''
from typing import Literal

Engine = Literal["bitand", "kronecker"]
ENGINES: tuple[str, ...] = ("bitand", "kronecker")
'''


def _run(sources, docs=None, select=None):
    contexts = [
        FileContext.from_source(src, path) for path, src in sources.items()
    ]
    return lint_sources(contexts, docs=docs or {}, select=select)


def _rules_fired(sources, docs=None, select=None):
    return [f.rule for f in _run(sources, docs, select)]


class TestRL001Uint64Safety:
    def test_int_literal_mix_fires(self):
        bad = (
            "import numpy as np\n"
            "def f(words):\n"
            "    words = np.asarray(words, dtype=np.uint64)\n"
            "    return words & 0xFF\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_uncast_shift_amount_fires(self):
        bad = (
            "import numpy as np\n"
            "def f(words, bits):\n"
            "    packed = np.zeros(4, dtype=np.uint64)\n"
            "    return packed >> bits\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_inplace_update_fires(self):
        bad = (
            "import numpy as np\n"
            "def f():\n"
            "    x = np.uint64(7)\n"
            "    x <<= 3\n"
            "    return x\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_producer_return_values_are_tracked(self):
        bad = (
            "from repro.convolution.bitops import pack_positions\n"
            "def f(positions, total_bits):\n"
            "    words = pack_positions(positions, total_bits)\n"
            "    return words + 1\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL001"]

    def test_bitops_idiom_is_clean(self):
        good = (
            "import numpy as np\n"
            "_WORD = 64\n"
            "def shift(words, bits):\n"
            "    words = np.asarray(words, dtype=np.uint64)\n"
            "    shifted = np.zeros_like(words)\n"
            "    shifted[:-1] = words[1:] << np.uint64(_WORD - bits)\n"
            "    return (shifted >> np.uint64(bits)) | shifted\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_astype_uint64_counts_as_cast(self):
        good = (
            "import numpy as np\n"
            "def masks(positions):\n"
            "    return np.uint64(1) << (positions % 64).astype(np.uint64)\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_untracked_int_arrays_are_ignored(self):
        good = (
            "import numpy as np\n"
            "def f(words):\n"
            "    nonzero = np.nonzero(words)[0]\n"
            "    return nonzero * 64 + 1\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_size_attribute_is_not_uint64(self):
        good = (
            "import numpy as np\n"
            "def f(words):\n"
            "    words = np.ascontiguousarray(words, dtype=np.uint64)\n"
            "    return words.size * 64\n"
        )
        assert _rules_fired({"src/m.py": good}) == []


class TestRL003PicklableTargets:
    def test_lambda_fires(self):
        bad = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(lambda x: x, i) for i in items]\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL003"]

    def test_bound_method_fires(self):
        bad = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class M:\n"
            "    def go(self, x):\n"
            "        return x\n"
            "    def run(self, items):\n"
            "        with ProcessPoolExecutor() as pool:\n"
            "            return [pool.submit(self.go, i) for i in items]\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL003"]

    def test_closure_fires(self):
        bad = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(items):\n"
            "    def helper(x):\n"
            "        return x + 1\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(helper, i) for i in items]\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL003"]

    def test_module_level_target_is_clean(self):
        good = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x + 1\n"
            "def run(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, i) for i in items]\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_thread_pool_lambdas_are_fine(self):
        good = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(items):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        return [pool.submit(lambda x: x, i) for i in items]\n"
        )
        assert _rules_fired({"src/m.py": good}) == []


class TestRL004EngineRegistryParity:
    def test_unknown_engine_kwarg_fires(self):
        user = 'from repro import mine\nresult = mine(s, engine="warp")\n'
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/use.py": user}
        )
        assert fired == ["RL004"]

    def test_known_engine_kwarg_is_clean(self):
        user = 'from repro import mine\nresult = mine(s, engine="bitand")\n'
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/use.py": user}
        )
        assert fired == []

    def test_pytest_raises_body_is_exempt(self):
        test = (
            "import pytest\n"
            "def test_rejects():\n"
            "    with pytest.raises(ValueError):\n"
            '        Miner(engine="quantum")\n'
            '    Miner(engine="bitand")\n'
            '    Miner(engine="kronecker")\n'
        )
        fired = _rules_fired(
            {
                "src/convolution_miner.py": REGISTRY_MODULE,
                "tests/test_x.py": test,
            }
        )
        assert fired == []

    def test_literal_alias_drift_fires(self):
        drifted = REGISTRY_MODULE.replace(
            'Literal["bitand", "kronecker"]', 'Literal["bitand"]'
        )
        fired = _rules_fired({"src/convolution_miner.py": drifted})
        assert fired == ["RL004"]

    def test_handlisted_argparse_choices_fire(self):
        cli = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--engine", choices=("bitand",), '
            'default="bitand")\n'
        )
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/cli.py": cli}
        )
        assert fired == ["RL004"]

    def test_derived_argparse_choices_are_clean(self):
        cli = (
            "import argparse\n"
            "from repro.core import ENGINES\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--engine", choices=ENGINES, '
            'default="bitand")\n'
        )
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE, "src/cli.py": cli}
        )
        assert fired == []

    def test_unknown_engine_in_docs_fires(self):
        docs = {"docs/api.md": 'Use `engine="warp"` for speed.\n'}
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE}, docs=docs
        )
        assert "RL004" in fired

    def test_registry_engine_missing_from_docs_fires(self):
        docs = {"docs/api.md": "Only bitand is documented here.\n"}
        fired = _rules_fired(
            {"src/convolution_miner.py": REGISTRY_MODULE}, docs=docs
        )
        assert fired == ["RL004"]  # 'kronecker' never mentioned

    def test_registry_engine_untested_fires(self):
        test = 'def test_one():\n    Miner(engine="bitand")\n'
        fired = _rules_fired(
            {
                "src/convolution_miner.py": REGISTRY_MODULE,
                "tests/test_x.py": test,
            }
        )
        assert fired == ["RL004"]  # 'kronecker' never exercised

    def test_no_registry_in_scan_set_skips_rule(self):
        user = 'result = mine(s, engine="warp")\n'
        assert _rules_fired({"src/use.py": user}) == []


POLICY_MODULE = '''
FALLBACK_CHAIN: tuple[str, ...] = ("process", "thread", "serial")
FAULT_POLICIES: tuple[str, ...] = ("fallback", "raise")
'''


class TestRL004FaultPolicyParity:
    def test_unknown_on_fault_kwarg_fires(self):
        user = 'miner = Miner(on_fault="explode")\n'
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "src/use.py": user}
        )
        assert fired == ["RL004"]

    def test_known_on_fault_kwarg_is_clean(self):
        user = 'miner = Miner(on_fault="fallback")\n'
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "src/use.py": user}
        )
        assert fired == []

    def test_pytest_raises_body_is_exempt(self):
        test = (
            "import pytest\n"
            "def test_rejects():\n"
            "    with pytest.raises(ValueError):\n"
            '        Miner(on_fault="explode")\n'
            '    Miner(on_fault="fallback")\n'
            '    Miner(on_fault="raise")\n'
        )
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "tests/test_x.py": test}
        )
        assert fired == []

    def test_handlisted_argparse_choices_fire(self):
        cli = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--on-fault", choices=("fallback",), '
            'default="fallback")\n'
        )
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "src/cli.py": cli}
        )
        assert fired == ["RL004"]

    def test_derived_argparse_choices_are_clean(self):
        cli = (
            "import argparse\n"
            "from repro.parallel import FAULT_POLICIES\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--on-fault", choices=FAULT_POLICIES, '
            'default="fallback")\n'
        )
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "src/cli.py": cli}
        )
        assert fired == []

    def test_unknown_policy_in_docs_fires(self):
        docs = {
            "docs/api.md": (
                'Pass `on_fault="explode"`; the fallback and raise '
                "policies degrade process, thread, serial backends.\n"
            )
        }
        fired = _rules_fired({"src/engine.py": POLICY_MODULE}, docs=docs)
        assert fired == ["RL004"]

    def test_policy_missing_from_docs_fires(self):
        docs = {
            "docs/api.md": (
                "Only the fallback policy over process, thread, and "
                "serial backends is documented here.\n"
            )
        }
        fired = _rules_fired({"src/engine.py": POLICY_MODULE}, docs=docs)
        assert fired == ["RL004"]  # 'raise' never mentioned

    def test_chain_backend_missing_from_docs_fires(self):
        docs = {
            "docs/api.md": (
                "The fallback and raise policies degrade from process "
                "to thread pools.\n"  # 'serial' never mentioned
            )
        }
        fired = _rules_fired({"src/engine.py": POLICY_MODULE}, docs=docs)
        assert fired == ["RL004"]

    def test_policy_untested_fires(self):
        test = 'def test_one():\n    Miner(on_fault="fallback")\n'
        fired = _rules_fired(
            {"src/engine.py": POLICY_MODULE, "tests/test_x.py": test}
        )
        assert fired == ["RL004"]  # 'raise' never exercised

    def test_no_policy_registry_in_scan_set_skips_checks(self):
        user = 'miner = Miner(on_fault="explode")\n'
        assert _rules_fired({"src/use.py": user}) == []


class TestRL005Hygiene:
    def test_mutable_default_fires(self):
        bad = "def f(x, acc=[]):\n    return acc\n"
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_mutable_kwonly_default_fires(self):
        bad = "def f(x, *, acc={}):\n    return acc\n"
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_bare_except_fires(self):
        bad = (
            "def f():\n"
            "    try:\n"
            "        return 1\n"
            "    except:\n"
            "        return 0\n"
        )
        assert _rules_fired({"src/m.py": bad}) == ["RL005"]

    def test_typed_except_and_none_default_are_clean(self):
        good = (
            "def f(x, acc=None):\n"
            "    try:\n"
            "        return acc or [x]\n"
            "    except ValueError:\n"
            "        return []\n"
        )
        assert _rules_fired({"src/m.py": good}) == []

    def test_rule_scoped_to_src(self):
        bad = "def f(x, acc=[]):\n    return acc\n"
        assert _rules_fired({"tests/helper.py": bad}) == []
