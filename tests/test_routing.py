"""Unit tests of the coordinator core both out-of-process substrates run on.

Everything here runs against fake workers and sinks: no process, no pipe, no socket.
The substrates' own behaviour under real deaths is ``TestProcessesCrashRecovery`` and
``tests/test_cluster.py``; this file pins the rules they share.
"""

from __future__ import annotations

import pickle
from collections import deque

import pytest

from repro.backends.base import BackendError, Receive, WakeToken, WorkerJob
from repro.backends.routing import (
    AttemptBook,
    BundleRegistry,
    JobTransport,
    RoutedMailbox,
    RoutedSubstrate,
    Sealed,
    opened,
    run_job,
)


class FakeSink:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)

    def opened(self):
        return [opened(item) for item in self.items if type(item) is not WakeToken]


class FakeWorker:
    """A worker handle: it keeps the frames posted to it."""

    def __init__(self):
        self.frames = []
        self.attempts = set()

    def post(self, frame):
        self.frames.append(frame)

    def deliveries(self):
        return [frame[3] for frame in self.frames if frame[0] == "deliver"]


class FakeSubstrate(RoutedSubstrate):
    name = "fake"

    def __init__(self, max_attempts=3):
        super().__init__(5.0, AttemptBook(max_attempts), BundleRegistry())

    def start(self):
        return self

    def shutdown(self):
        pass

    def _place(self, jobs):
        pass


def _idle(transport):
    return iter(())


def _one_job(max_attempts=3):
    """A session with one submitted job, one mailbox and a fake coordinator reader."""
    substrate = FakeSubstrate(max_attempts)
    session = substrate.session()
    box = session.mailbox("box")
    session._jobs_remaining = 1
    substrate._submit_jobs(session, [(WorkerJob(factory=_idle), "job")])
    (job,) = session._jobs
    return substrate._book, session, box, job


def _send(book, attempt, box, message):
    book.handle(("send", attempt.attempt_id, box.index, pickle.dumps(message)))


class TestReplayableMailbox:
    def test_a_claim_replays_the_log_in_order_then_takes_live_deliveries(self):
        box = RoutedMailbox("box", 0)
        early = FakeSink()
        box.claim(early)
        box.deliver("a")
        box.deliver("b")
        late = FakeSink()
        box.claim(late)
        box.deliver("c")
        assert early.items == late.items == box.log == ["a", "b", "c"]

    def test_it_crosses_to_a_worker_as_name_and_number_only(self):
        box = RoutedMailbox("box", 7)
        box.deliver("history")
        box.claim(FakeSink())
        copy = pickle.loads(pickle.dumps(box))
        assert (copy.name, copy.index, copy.log, copy.sinks) == ("box", 7, [], [])

    def test_wake_tokens_never_enter_a_log(self):
        book, session, box, job = _one_job()
        reader = FakeSink()
        session._claim(box.index, reader)
        worker = FakeWorker()
        attempt = book.start(job, worker)
        book.handle(("claim", attempt.attempt_id, box.index))
        session.send(0, 0, "m", 1, mailbox=box)
        session._wake_mailboxes("stop")
        assert box.log == ["m"]
        assert reader.items[0] == "m" and type(reader.items[1]) is WakeToken
        # A worker job is stopped by an abort frame, never by a token.
        assert worker.frames == [("deliver", attempt.attempt_id, box.index, "m")]
        # A reader that turns up after the wake gets the history, then its token.
        late = FakeSink()
        session._claim(box.index, late)
        assert late.items[0] == "m" and type(late.items[1]) is WakeToken
        assert box.log == ["m"]


class TestDuplicateSuppression:
    def test_a_replayed_attempt_forwards_only_what_its_predecessor_did_not(self):
        book, session, box, job = _one_job()
        reader = FakeSink()
        session._claim(box.index, reader)
        first = book.start(job, FakeWorker())
        _send(book, first, box, "m1")
        _send(book, first, box, "m2")
        assert book.lost(first, "died") is job
        second = book.start(job, FakeWorker())
        for message in ("m1", "m2", "m3", "m4"):
            _send(book, second, box, message)
        assert reader.opened() == ["m1", "m2", "m3", "m4"]
        assert book.suppressed == 2 and session.replays == 1

    def test_speculative_twins_forward_each_send_once(self):
        book, session, box, job = _one_job()
        reader = FakeSink()
        session._claim(box.index, reader)
        slow = book.start(job, FakeWorker())
        fast = book.start(job, FakeWorker())
        _send(book, slow, box, "m1")
        _send(book, fast, box, "m1")
        _send(book, fast, box, "m2")
        _send(book, slow, box, "m2")
        _send(book, slow, box, "m3")
        _send(book, fast, box, "m3")
        assert reader.opened() == ["m1", "m2", "m3"]
        assert book.suppressed == 3
        assert all(type(item) is Sealed for item in box.log)


class TestClaims:
    def test_a_dead_attempts_sinks_go_and_its_replacement_rebuilds_the_history(self):
        book, session, box, job = _one_job()
        dead, replacement = FakeWorker(), FakeWorker()
        attempt = book.start(job, dead)
        book.handle(("claim", attempt.attempt_id, box.index))
        session.send(0, 0, "x", 1, mailbox=box)
        assert dead.deliveries() == ["x"]
        book.lost(attempt, "died")
        assert box.sinks == [] and dead.attempts == set()
        session.send(0, 0, "y", 1, mailbox=box)
        assert dead.deliveries() == ["x"]
        again = book.start(job, replacement)
        book.handle(("claim", again.attempt_id, box.index))
        session.send(0, 0, "z", 1, mailbox=box)
        assert replacement.deliveries() == ["x", "y", "z"]
        assert all(frame[1] == again.attempt_id for frame in replacement.frames)

    def test_a_finished_attempt_gives_up_its_claims(self):
        book, session, box, job = _one_job()
        worker = FakeWorker()
        attempt = book.start(job, worker)
        book.handle(("claim", attempt.attempt_id, box.index))
        book.handle(("done", attempt.attempt_id, 0, 0))
        assert box.sinks == [] and attempt.claims == [] and worker.attempts == set()
        # A record of an attempt that is over changes nothing.
        _send(book, attempt, box, "late")
        assert box.log == []


def _events(book, session, job, script):
    """Play ``script`` — (attempt number, event) pairs — against two attempts."""
    attempts = [book.start(job, FakeWorker()), book.start(job, FakeWorker())]
    for number, event in script:
        attempt = attempts[number]
        if event == "done":
            book.handle(("done", attempt.attempt_id, 3, 30))
        elif event == "error":
            book.handle(("error", attempt.attempt_id, "Traceback: boom"))
        elif event == "aborted":
            book.handle(("aborted", attempt.attempt_id))
        elif event == "lost":
            book.lost(attempt, "connection lost")
        elif event == "abort-session":
            session._substrate._abort_session(session)
    return attempts


class TestSettlesOnce:
    @pytest.mark.parametrize("script, errors, messages", [
        ([(0, "done"), (1, "done")], 0, 3),
        ([(0, "done"), (1, "error")], 0, 3),
        ([(1, "error"), (0, "done")], 1, 0),
        ([(0, "lost"), (1, "done"), (1, "lost")], 0, 3),
        ([(0, "done"), (1, "aborted"), (0, "lost")], 0, 3),
        ([(0, "abort-session"), (0, "aborted"), (1, "aborted"), (1, "lost")], 0, 0),
        ([(0, "abort-session"), (0, "lost"), (1, "done")], 0, 3),
        ([(0, "lost"), (1, "lost")], 1, 0),
    ])
    def test_whatever_the_order_of_done_aborted_error_and_lost(
        self, script, errors, messages
    ):
        book, session, _, job = _one_job(max_attempts=2)
        _events(book, session, job, script)
        assert job.done and job.attempts == []
        assert session._jobs_remaining == 0
        assert len(session._errors) == errors
        assert session.telemetry().network_messages == messages

    def test_settling_a_job_aborts_its_other_attempt(self):
        book, session, _, job = _one_job()
        first, twin = _events(book, session, job, [(0, "done")])
        assert twin.worker.frames == [("abort", twin.attempt_id)]
        assert first.worker.frames == []

    def test_a_lost_job_runs_again_until_its_attempts_are_spent(self):
        book, session, _, job = _one_job(max_attempts=2)
        assert book.lost(book.start(job, FakeWorker()), "died") is job
        assert book.lost(book.start(job, FakeWorker()), "died") is None
        assert session._errors == [("job", "died; 2 attempt(s) exhausted")]
        assert book.start(job, FakeWorker()) is None

    def test_a_refunded_attempt_costs_nothing(self):
        book, session, _, job = _one_job(max_attempts=1)
        assert book.lost(book.start(job, FakeWorker()), "miss", refund=True) is job
        assert job.started == 0 and session.replays == 0

    def test_jobs_that_never_started_settle_when_the_submit_fails(self):
        substrate = FakeSubstrate()
        session = substrate.session()
        session._jobs_remaining = 2
        with pytest.raises(BackendError, match="'lambda' is not picklable"):
            substrate._submit_jobs(session, [
                (WorkerJob(factory=_idle), "fine"),
                (WorkerJob(factory=lambda transport: iter(())), "lambda"),
            ])
        assert session._jobs_remaining == 0


class FakeTransport(JobTransport):
    def __init__(self, frames):
        super().__init__(attempt_id=5, job_name="job", receive_timeout=5.0)
        self.records = []
        self.frames = deque(frames)

    def write(self, record):
        self.records.append(record)

    def next_frame(self, timeout):
        return self.frames.popleft() if self.frames else None


def _echo(transport, own, sink):
    def body():
        message = yield Receive(own)
        transport.send(0, 0, ("echo", message), 4, mailbox=sink)
        transport.publish_report(1, "report")

    return body()


class TestJobRunner:
    def _payload(self):
        own, sink = RoutedMailbox("own", 0), RoutedMailbox("sink", 1)
        return pickle.dumps((_echo, {"own": own, "sink": sink}, {}))

    def test_claim_before_the_first_read_and_one_final_record(self):
        transport = FakeTransport([
            ("deliver", 4, 0, "for an earlier attempt"),
            ("deliver", 5, 1, "for another mailbox"),
            ("deliver", 5, 0, Sealed(pickle.dumps("hi"))),
        ])
        run_job(transport, self._payload(), {}, {})
        claim, send, report, done = transport.records
        assert claim == ("claim", 5, 0)
        assert send[:3] == ("send", 5, 1) and pickle.loads(send[3]) == ("echo", "hi")
        assert report == ("report", 5, 1, "report")
        assert done == ("done", 5, 1, 4)

    def test_an_abort_frame_ends_the_job_aborted(self):
        transport = FakeTransport([("abort", 5)])
        run_job(transport, self._payload(), {}, {})
        assert transport.records == [("claim", 5, 0), ("aborted", 5)]

    def test_a_body_that_raises_ends_the_job_in_error(self):
        transport = FakeTransport([])  # no delivery: the read times out
        run_job(transport, self._payload(), {}, {})
        assert transport.records[-1][:2] == ("error", 5)
        assert "timed out" in transport.records[-1][2]

    def test_shared_blobs_join_the_workers_bundles(self):
        cache = {}
        payload = pickle.dumps((_bundle_probe, {}, {"bundle": 3}))
        transport = FakeTransport([])
        run_job(transport, payload, {3: pickle.dumps({"grammar": 1})}, cache)
        assert cache == {3: {"grammar": 1}}
        assert transport.records == [("done", 5, 0, 0)]


def _bundle_probe(transport, bundle):
    assert bundle == {"grammar": 1}
    return
    yield  # pragma: no cover — makes this a generator
