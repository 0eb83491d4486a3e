"""Shared machinery of the two serving workloads.

* :class:`ServerProcess` starts the shipped CLI server (or the traced
  launcher around the same CLI entry point), times its set-up, reads its
  memory high-water mark and stops it.
* :class:`Reference` rebuilds the served models in the benchmark process
  from the public API and judges every recorded answer against them after
  the load phase, so checking never competes with the server for CPU.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from loadgen import TransportError
from stats import Tally

#: Companies in the served universe: a 20k-company deployment.
N_COMPANIES = 20_000
TOP_N = 5
K_SIMILAR = 10
#: Set-up samples per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: Scores travel rounded to 6 decimals; allow one unit of that rounding.
SCORE_TOL = 1.5e-6
#: The served latency SLO (``repro serve --slo-latency-ms`` default), in seconds.
SLO_S = 0.250
#: Least share of aliased names that must link to a company bearing the true
#: company's normalised name: the floor the repository's own linkage tests
#: hold the resolver to (``test_recall_floor_under_alias_corruption``).
RELINK_FLOOR = 0.85

_READY = re.compile(r"serving on http://([0-9.]+):(\d+)")


#: The served universe: the CLI's default ``--seed``.  The deployment is
#: fixed; the benchmark's seed varies the traffic sent to it.
UNIVERSE_SEED = 7


def cli_args() -> list[str]:
    """The CLI arguments of the served configuration (all CLI defaults)."""
    return ["--companies", str(N_COMPANIES), "--seed", str(UNIVERSE_SEED),
            "serve", "--port", "0"]


def program_env(root: str) -> dict[str, str]:
    """Environment for a program process: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class ServerProcess:
    """A running server process, started by :meth:`start`."""

    def __init__(self, argv: list[str], root: str) -> None:
        self.argv = argv
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.setup_s = float("nan")
        self.host = ""
        self.port = 0
        self.output: list[str] = []
        self._drain: threading.Thread | None = None

    def start(self, timeout_s: float = 120.0) -> "ServerProcess":
        """Launch and block until the ``serving on`` line; times the set-up."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.root,
            env=program_env(self.root),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = started + timeout_s
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)
            match = _READY.search(line)
            if match:
                self.setup_s = time.perf_counter() - started
                self.host, self.port = match.group(1), int(match.group(2))
                break
            if time.perf_counter() > deadline:
                break
        if not self.port:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.output[-20:]))
        self._drain = threading.Thread(target=self._drain_output, daemon=True)
        self._drain.start()
        return self

    def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self.output.append(line)

    def stop(self) -> int:
        """Terminate, wait, and kill if it hangs; returns the exit code.

        SIGTERM rather than the CLI's Ctrl-C path: a process started from a
        non-interactive shell may inherit SIGINT as ignored.  The plain CLI
        dies at once (exit code ``-SIGTERM``); the traced launcher turns the
        signal into the CLI's own shutdown and writes its spans (exit 0).
        """
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def timed_setups(argv: list[str], root: str, samples: int) -> list[float]:
    """Start and stop ``samples`` servers, returning each one's set-up time."""
    times = []
    for _ in range(samples):
        server = ServerProcess(argv, root).start()
        times.append(server.setup_s)
        server.stop()
    return times


def timed_build() -> float:
    """Build the served models once more (``build_demo_models``); its wall time."""
    from repro.serve import build_demo_models

    started = time.perf_counter()
    build_demo_models(N_COMPANIES, seed=UNIVERSE_SEED)
    return time.perf_counter() - started


@dataclass
class Record:
    """One request as the generator saw it; judged after the phase."""

    endpoint: str
    request_id: str
    due: float
    sent: float
    done: float
    status: int | None
    body: Any
    error: str | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        """From the due time (open loop) or send time (closed loop)."""
        return self.done - self.due


def send(client, endpoint: str, payload: Any, request_id: str, due: float | None, meta) -> Record:
    """Perform one request and capture what came back."""
    sent = time.perf_counter()
    try:
        status, body = client.call("POST", endpoint, payload, request_id)
        error = None
    except TransportError as exc:
        status, body, error = None, None, str(exc)
    done = time.perf_counter()
    return Record(endpoint, request_id, sent if due is None else due, sent, done,
                  status, body, error, meta)


class Reference:
    """Bit-identical serving models rebuilt from the public API.

    ``build_demo_models(N, seed)`` is deterministic, so the LDA and n-gram
    tiers fitted here equal the server's.  Hot-swapped LDA artifacts are
    registered with :meth:`add_lda` under the registry version they serve
    as.
    """

    def __init__(self) -> None:
        from repro.data.internal import InternalSalesDatabase
        from repro.data.linkage import normalize_company_name
        from repro.serve import build_demo_models

        started = time.perf_counter()
        self.data, models = build_demo_models(N_COMPANIES, seed=UNIVERSE_SEED)
        self.build_s = time.perf_counter() - started
        self.corpus = self.data.corpus
        self.vocabulary = self.corpus.vocabulary
        self.normalized_name = {c.duns.value: normalize_company_name(c.name)
                                for c in self.corpus.companies}
        self._internal = InternalSalesDatabase(self.corpus.companies, seed=UNIVERSE_SEED)
        self.ngram = models["ngram"]
        self.lda_by_version: dict[int, Any] = {}
        self._tools: dict[int, Any] = {}
        self.add_lda(1, models["lda"])
        counts = self.corpus.binary_matrix().sum(axis=0)
        self._popularity = counts / counts.sum()
        self._memo: dict[tuple, list] = {}

    def add_lda(self, version: int, model: Any) -> None:
        """Register the LDA serving as ``version`` (features built now)."""
        from repro.app.tool import SalesRecommendationTool

        self.lda_by_version[version] = model
        key = id(model)
        if key not in self._tools:
            self._tools[key] = SalesRecommendationTool(
                self.corpus, model.company_features(self.corpus), self._internal
            )

    # -- expected answers ------------------------------------------------
    def tier_answer(self, model: Any, history: list[int]) -> list[tuple[int, float]]:
        """The ladder tier's answer: phi-thresholded, else best unowned."""
        from repro.recommend.recommender import ThresholdRecommender

        key = ("recommend", id(model), tuple(history))
        if key not in self._memo:
            recommender = ThresholdRecommender(model, threshold=0.1)
            scored = recommender.recommend_scored(history)
            if scored:
                answer = scored[:TOP_N]
            else:
                scores = recommender.scores(history)
                answer = [(t, float(scores[t])) for t in recommender.top_k(history, TOP_N)]
            self._memo[key] = answer
        return self._memo[key]

    def floor_answer(self, history: list[int]) -> list[tuple[int, float]]:
        """The popularity floor's answer, ranked exactly as the service ranks it."""
        owned = set(history)
        ranked = [
            (int(t), float(self._popularity[t]))
            for t in self._popularity.argsort()[::-1]
            if int(t) not in owned
        ]
        return ranked[:TOP_N]

    def similar(self, version: int, duns: str) -> list[tuple[str, float]]:
        """Expected ``/similar`` hits for ``duns`` under an LDA version."""
        model = self.lda_by_version[version]
        key = ("similar", id(model), duns)
        if key not in self._memo:
            hits = self._tools[id(model)].similar_companies(duns, k=K_SIMILAR)
            self._memo[key] = [(h.duns, h.similarity) for h in hits]
        return self._memo[key]

    # -- comparisons ------------------------------------------------------
    @staticmethod
    def same_recommendations(body: dict, want: list[tuple[int, float]]) -> bool:
        """The ranked products of ``body`` equal ``want`` (see :func:`same_ranking`)."""
        got = [(r.get("token"), r.get("score")) for r in body.get("recommendations") or []]
        return same_ranking(got, want)

    @staticmethod
    def same_similar(body: dict, want: list[tuple[str, float]]) -> bool:
        """The similar companies of ``body`` equal ``want`` (see :func:`same_ranking`)."""
        got = [(h.get("duns"), h.get("similarity")) for h in body.get("similar") or []]
        return same_ranking(got, want)


def same_ranking(got: list[tuple], want: list[tuple]) -> bool:
    """Equal rankings up to the wire's 6-decimal rounding.

    Scores must agree position by position.  Items may trade places only
    with items whose score is within that rounding, and an item may be
    swapped in or out of the list only when it ties the last kept score.
    """
    if len(got) != len(want):
        return False
    if any(not isinstance(g, (int, float)) or abs(g - w) > SCORE_TOL
           for (_, g), (_, w) in zip(got, want)):
        return False
    if [item for item, _ in got] == [item for item, _ in want]:
        return True
    boundary = want[-1][1]
    got_items = {item for item, _ in got}
    want_items = {item for item, _ in want}
    return all(abs(score - boundary) <= SCORE_TOL
               for item, score in [*got, *want]
               if (item in got_items) != (item in want_items))


def _label(record: Record) -> str:
    """The tally key of a record: its endpoint, or a phase-specific label."""
    return record.meta.get("label", record.endpoint)


def judge_recommend(ref: Reference, record: Record, history: list[int],
                    versions: list[int], tally: Tally) -> None:
    """Check one ``/recommend`` answer; ``versions`` may have answered.

    ``versions`` lists the LDA versions that could have served the request,
    newest last.  The answer must come from the version the response names;
    one from the generation just before it, on a request that overlapped a
    swap, counts as version skew rather than a failure.
    """
    body = record.body if isinstance(record.body, dict) else {}
    if record.error is not None:
        tally.fail(_label(record), "transport")
        return
    if record.status != 200:
        tally.fail(_label(record), f"status_{record.status}")
        return
    tier = body.get("tier")
    if tier == "lda":
        named = body.get("model_versions", {}).get("lda")
        candidates = [named] + [v for v in reversed(versions) if v != named]
        matched = None
        for version in candidates:
            model = ref.lda_by_version.get(version)
            if model is not None and ref.same_recommendations(body, ref.tier_answer(model, history)):
                matched = version
                break
        if matched is None:
            tally.fail(_label(record), "wrong_answer")
            return
        if matched != named:
            if matched != named - 1 or matched not in versions:
                tally.fail(_label(record), "wrong_version")
                return
            tally.note("version_skew")
    elif tier == "ngram":
        if not ref.same_recommendations(body, ref.tier_answer(ref.ngram, history)):
            tally.fail(_label(record), "wrong_answer")
            return
    elif tier == "popularity":
        if not ref.same_recommendations(body, ref.floor_answer(history)):
            tally.fail(_label(record), "wrong_answer")
            return
    else:
        tally.fail(_label(record), "unknown_tier")
        return
    tally.note("recommend_answers")
    if body.get("degraded"):
        tally.note("degraded")
    if body.get("path") == "cached":
        tally.note("cached")
    tally.ok(_label(record), record.latency_s)


def judge_similar(ref: Reference, record: Record, duns: str,
                  versions: list[int], tally: Tally) -> None:
    """Check one ``/similar`` answer for ``duns`` against ``versions``.

    The response names no model version, so the answer must equal the
    newest version that could have served it, or (version skew) an older
    one of ``versions``.
    """
    body = record.body if isinstance(record.body, dict) else {}
    if record.error is not None:
        tally.fail(_label(record), "transport")
        return
    if record.status != 200:
        tally.fail(_label(record), f"status_{record.status}")
        return
    if body.get("duns") != duns:
        tally.fail(_label(record), "wrong_duns")
        return
    for position, version in enumerate(reversed(versions)):
        if ref.same_similar(body, ref.similar(version, duns)):
            if position:
                tally.note("version_skew")
            tally.ok(_label(record), record.latency_s)
            return
    tally.fail(_label(record), "wrong_answer")


def judge_alias(ref: Reference, record: Record, truth: str, tally: Tally) -> None:
    """Check a ``/similar`` request that named a company instead of a D-U-N-S.

    Judged against the ``AliasCorruption`` ground truth ``truth``: a link is
    right when the linked company's normalised name equals the true
    company's.  Linking the true company counts ``alias_true_link``;
    linking another company of the same name counts ``alias_same_name``
    (the name cannot tell them apart; reported, see ``BASELINE.md``); a
    link to a company of another name counts ``alias_wrong_link``.  A
    refusal (422 ``ambiguous_name`` or ``unresolved_name``) links nothing
    and counts ``alias_unresolved``.  Wrong links and refusals are the
    fuzzy matcher's misses: they count against :data:`RELINK_FLOOR`, not as
    failed operations.  Any answer that names a company must still be the
    right ``/similar`` answer for the company it names.
    """
    tally.note("alias_sent")
    body = record.body if isinstance(record.body, dict) else {}
    if record.error is not None:
        tally.fail(_label(record), "transport")
        return
    if record.status == 422 and body.get("error") in ("ambiguous_name", "unresolved_name"):
        tally.note("alias_unresolved")
        tally.ok(_label(record), record.latency_s)
        return
    if record.status != 200:
        tally.fail(_label(record), f"status_{record.status}")
        return
    linked = body.get("duns")
    if linked not in ref.normalized_name:
        tally.fail(_label(record), "unknown_duns")
        return
    if linked == truth:
        tally.note("alias_true_link")
    elif ref.normalized_name[linked] == ref.normalized_name[truth]:
        tally.note("alias_same_name")
    else:
        tally.note("alias_wrong_link")
    judge_similar(ref, record, linked, [1], tally)


def correct(tally: Tally, problems: list[str]) -> bool:
    """The verdict on one pass's answers.

    Every answer with one right value must have it, and the run-level
    checks (``problems``, among them :data:`RELINK_FLOOR`) must hold.
    """
    return tally.failed == 0 and not problems


def relink_problems(tally: Tally) -> list[str]:
    """The run-level linkage check: aliased names relinked at least at the floor."""
    sent = tally.events["alias_sent"]
    if not sent:
        return []
    share = (tally.events["alias_true_link"] + tally.events["alias_same_name"]) / sent
    if share >= RELINK_FLOOR:
        return []
    return [f"aliased names relinked {share:.3f} < floor {RELINK_FLOOR}"]
