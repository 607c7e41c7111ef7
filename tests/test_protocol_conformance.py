"""Conformance pass: the declared protocol model is pinned to the code."""

import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.protocol import (
    COORDINATOR_ROLE,
    DATA_CHANNEL,
    WORKER_ROLE,
    MsgSpec,
    build_protocol_model,
    check_protocol_conformance,
)


@pytest.fixture(scope="module")
def model():
    return build_protocol_model()


def _check(model, tmp_path, source):
    f = tmp_path / "fixture.py"
    f.write_text(textwrap.dedent(source))
    return check_protocol_conformance(model, paths=[f])


class TestRealTree:
    def test_dist_tree_conforms_to_model(self, model):
        """Every send/recv site in repro.dist is annotated and modeled."""
        report = check_protocol_conformance(model)
        assert report.ok, report.render()
        assert report.files_scanned >= 5  # the whole dist package was read

    def test_coordinator_actions_name_run_methods(self, model):
        """Every coordinator action of the model is a method of the run
        object, so the model and the code stay named alike."""
        from repro.dist.coordinator import _Run

        actions = {
            t.action for t in model.machines[COORDINATOR_ROLE].transitions
            if t.action and t.action != "discard"
        }
        assert actions  # the machine really declares actions
        missing = sorted(a for a in actions if not callable(getattr(_Run, a, None)))
        assert not missing, f"model actions without a _Run method: {missing}"

    def test_model_with_phantom_message_drifts(self, model):
        """A message the code never implements is flagged (M411)."""
        phantom = MsgSpec("phantom", WORKER_ROLE, COORDINATOR_ROLE,
                          DATA_CHANNEL, 64)
        drifted = replace(model, messages=model.messages + (phantom,))
        report = check_protocol_conformance(drifted)
        assert report.rules_fired() == {"M411"}
        assert all("phantom" in f.message for f in report.findings)


class TestAnnotationChecks:
    def test_annotated_site_is_clean(self, model, tmp_path):
        report = _check(model, tmp_path, '''
            def worker_main(endpoint):
                """Run one rank.

                Protocol:
                    recv scatter: coordinator -> worker [data]
                    send done: worker -> coordinator [data]
                """
                msg = endpoint.recv()
                endpoint.send(-1, ("done", 0, msg))
        ''')
        assert not report.by_rule("M410")
        assert not report.by_rule("M412")

    def test_unannotated_send_fires_m412(self, model, tmp_path):
        report = _check(model, tmp_path, '''
            def worker_main(endpoint):
                endpoint.send(-1, ("done", 0, None))
        ''')
        assert report.rules_fired() >= {"M412"}
        f = report.by_rule("M412")[0]
        assert f.location.line == 3
        assert f.location.obj == "worker_main"

    def test_unknown_message_annotation_fires_m410(self, model, tmp_path):
        report = _check(model, tmp_path, '''
            def worker_main(endpoint):
                """Protocol:
                    send goodbye: worker -> coordinator [data]
                """
                endpoint.send(-1, None)
        ''')
        assert "M410" in report.rules_fired()
        assert "goodbye" in report.by_rule("M410")[0].message

    def test_wrong_roles_fire_m410(self, model, tmp_path):
        report = _check(model, tmp_path, '''
            def worker_main(endpoint):
                """Protocol:
                    send done: coordinator -> worker [data]
                """
                endpoint.send(-1, None)
        ''')
        assert "M410" in report.rules_fired()
        assert "model declares" in report.by_rule("M410")[0].message

    def test_channel_mismatch_leaves_site_uncovered(self, model, tmp_path):
        """A data-channel annotation cannot cover a telemetry send."""
        report = _check(model, tmp_path, '''
            def beat(endpoint):
                """Protocol:
                    send done: worker -> coordinator [data]
                """
                endpoint.send_telemetry(None)
        ''')
        assert "M412" in report.rules_fired()

    def test_module_docstring_covers_nested_sites(self, model, tmp_path):
        report = _check(model, tmp_path, '''
            """Fixture module.

            Protocol:
                send heartbeat: worker -> coordinator [telemetry]
            """

            class Beater:
                def loop(self, endpoint):
                    endpoint.send_telemetry(None)
        ''')
        assert not report.by_rule("M412")

    def test_unparsable_file_reports_l300(self, model, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        report = check_protocol_conformance(model, paths=[f])
        assert "L300" in report.rules_fired()
