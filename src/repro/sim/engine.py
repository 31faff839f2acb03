"""The event loop: simulator clock, callback events, futures, processes.

Design notes
------------

Logically the simulator executes one totally-ordered stream of
``(time, seq)`` events: ``seq`` is a monotonically increasing counter so
that two events scheduled for the same tick fire in the order they were
scheduled.  That total order is the determinism contract — it is what
makes whole-system runs byte-for-byte reproducible, and it is pinned by
the golden event-order test in ``tests/test_sim_determinism.py``.

Physically the kernel keeps *two* queues behind that single logical
order:

* a binary heap for events with a nonzero delay, and
* a **same-tick ring** (a deque) for zero-delay events — the bulk of
  process stepping (``yield None``, ``yield 0``, future resumes,
  ``spawn``), which would otherwise pay a heap push *and* pop each.

Heap entries are ``(time, seq, fn, args)``; ring entries drop the
redundant time field and are just ``(seq, fn, args)``, because a ring
entry is created at the current tick (``schedule`` only routes
``delay == 0`` there) and the ring is drained before the clock
advances.  Those two invariants also collapse the head-to-head merge:
a heap entry can only precede the ring when it is due at the *current*
tick, and such an entry was necessarily pushed before the clock
reached this tick, i.e. before any live ring entry was created — so
its ``seq`` is always smaller.  The merge test is therefore just
"does the heap hold an entry for the current tick", no tuple
comparison, and the executed ``(time, seq)`` order stays bit-identical
to a single heap.

Processes are plain Python generators.  A process may yield:

* an ``int`` — sleep for that many ticks;
* a :class:`Future` — suspend until the future completes, receiving the
  future's value as the result of the ``yield``;
* a :class:`Process` — equivalent to yielding its ``done`` future;
* ``None`` — yield the floor (resume in the same tick, after already
  scheduled same-tick events).

A process's ``return`` value becomes the result of its ``done`` future, so
processes compose: a parent can ``yield child.done``.

Performance
-----------

Besides the ring, three kernel fast paths matter for events/sec (see
``benchmarks/bench_kernel.py`` for the microbenchmarks that meter them):

* ``run``/``run_until`` drain ticks in tight loops with pre-bound
  locals (see "Tick drain" below); ``Process._step`` inlines the
  dispatch of the common yields (``int`` sleep, ``None`` floor,
  ``Future`` wait) instead of paying a second call per step.
* A future resume is a **single queued event**: completing a future
  calls :meth:`Process._resume`, which appends one ring entry that
  sends the future's (already extracted) value straight into the
  generator — no intermediate ``schedule``/``value``-property round
  trip.
* :meth:`Simulator.future` recycles :class:`Future` objects through a
  per-simulator free-list pool; completed, no-longer-referenced futures
  are returned with :meth:`Simulator.recycle` (see
  ``repro.sim.resource`` for the recycle points).

The pre-bound ``Process._step``/``_resume`` make a live process a
reference cycle.  Every exit path of ``_step`` and ``_throw`` (return or
exception) drops them, and a failed process stores its exception
without the kernel's catching frame (see :func:`_without_kernel_frame`),
so a finished process is freed by reference count, not by the cyclic
GC.  A future records its simulator's private token, not the simulator,
so a simulator whose pool holds futures is no cycle either.  Model code
keeps the same invariant: an object must not store its
own bound method in an object it holds, or it becomes a cycle too.

Instrumentation is opt-in: ``Simulator(profile=True)`` (or
:func:`set_profile_default`) buckets executed events per callback
owner into ``Simulator.profile_counts`` and a process-wide total, and
``Simulator(trace=fn)`` streams ``(time, seq, owner)`` per executed
event.  Each drain loop reads one local, bound once per call, to decide
whether to report an event, so an uninstrumented run pays a single
``is None`` test per event.  A third, model-level layer — the
per-packet span tracer of :mod:`repro.telemetry` — rides on the
:attr:`Simulator.tracer` attribute: the kernel never consults it (no
branch on the ring/heap paths), models do, so with ``tracer = None``
the event stream is bit-identical to an uninstrumented run.

Tick drain
----------

The drain loop exploits the two queue invariants once per tick
instead of once per event: every heap entry due at the current tick
precedes every live ring entry (smaller ``seq`` — see above), so the
loop first pops *all* due heap entries, and then — since an executed
callback can only append ring entries (zero delay) or push
strictly-future heap entries — drains the *entire* ring with no merge
test at all.  The executed ``(time, seq)`` stream is the one a
per-event merge of ring and heap would produce; the golden event-order
files in ``tests/data`` pin it.

There are two copies of the loop: the plain one behind ``run()``, and
a bounded one that also checks an event budget and a stop future
before every event, behind ``run(max_events=...)`` and ``run_until``.
Both report each event to the profiler or trace hook when one is set.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

ProcessBody = Generator[Any, Any, Any]

_events_fired_total = 0
"""Events executed by every :class:`Simulator` in this OS process.

Experiments build many short-lived simulators; this monotonic total
lets a harness meter the event throughput of a whole experiment (the
delta across a call) without threading every simulator instance out.
"""

_profile_default = False
"""Whether new simulators profile by default (see :func:`set_profile_default`)."""

_profile_totals: Dict[str, int] = {}
"""Events per callback owner, aggregated across every profiling simulator."""

_FUTURE_POOL_CAP = 1024
"""Maximum recycled futures kept per simulator (bounds pool memory)."""


class _Never:
    """The stop condition of :meth:`Simulator.run`: a future that never completes."""

    __slots__ = ()
    _done = False


_NEVER = _Never()


def process_events_total() -> int:
    """Monotonic count of events executed by all simulators in this process."""
    return _events_fired_total


def set_profile_default(enabled: bool) -> None:
    """Make every *subsequently created* simulator profile (or not).

    This is how a CLI flag reaches simulators buried inside experiment
    code: flip the default, run, read :func:`profile_totals`.
    """
    global _profile_default
    _profile_default = bool(enabled)


def profile_totals() -> Dict[str, int]:
    """A copy of the process-wide owner → events-fired profile."""
    return dict(_profile_totals)


def reset_profile_totals() -> None:
    """Clear the process-wide profile (start of a measured region)."""
    _profile_totals.clear()


def owner_label(fn: Callable[..., None]) -> str:
    """A stable label for an event callback's owner.

    Bound methods are attributed to their instance (``Type:name`` when
    the instance is named, e.g. ``Process:nic.rx``); plain functions to
    their qualified name.  Used by both the profiler buckets and the
    golden event-order trace, so it must depend only on the callback,
    never on memory addresses or execution history.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return getattr(fn, "__qualname__", repr(fn))
    name = getattr(owner, "name", "")
    if name:
        return f"{type(owner).__name__}:{name}"
    return type(owner).__name__


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Future:
    """A one-shot completion token.

    A future starts pending, and exactly once transitions to done with a
    value (or an exception).  Processes wait on it by yielding it;
    callbacks subscribe with :meth:`add_callback`.

    ``_callbacks`` is ``None`` (no subscriber), a single callable (the
    overwhelmingly common case: one waiting process), or a list — this
    avoids allocating a list per future on the hot path.
    """

    __slots__ = ("_owner", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator"):
        # The simulator's private token, not the simulator: a pooled
        # future pointing back at its simulator would make every
        # simulator with a non-empty pool a reference cycle.
        self._owner = sim._token
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        """Whether the future has completed."""
        return self._done

    @property
    def value(self) -> Any:
        """The completed value.  Raises if still pending or failed."""
        if not self._done:
            raise SimulationError("future is still pending")
        if self._exception is not None:
            raise self._exception
        return self._value

    def set_result(self, value: Any = None) -> None:
        """Complete the future; wakes all waiters in subscription order."""
        if self._done:
            raise SimulationError("future already completed")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def set_exception(self, exc: BaseException) -> None:
        """Fail the future; waiters see the exception raised at the yield."""
        if self._done:
            raise SimulationError("future already completed")
        self._done = True
        self._exception = exc
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if type(callbacks) is list:
                for fn in callbacks:
                    fn(self)
            else:
                callbacks(self)

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when done (immediately if already done)."""
        if self._done:
            fn(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = fn
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]


class Timer:
    """A cancellable scheduled callback (see :meth:`Simulator.call_later`).

    The kernel's heap holds immutable entries, so cancellation never
    performs heap surgery: the queued entry stays where it is and the
    timer simply refuses to run its callback when it pops.  This keeps
    the executed ``(time, seq)`` order — and therefore determinism —
    identical whether or not anything was cancelled.  A cancelled entry
    that is never reached (the run ends first) costs nothing at all.

    Retransmission timeouts are the motivating user: the driver arms a
    timer per transmission attempt and cancels it on delivery, so only
    genuinely lost packets ever see the callback fire.
    """

    __slots__ = ("_fn", "_args", "_cancelled", "_fired")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self._fn = fn
        self._args = args
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` disarmed the timer before it fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """Still armed: neither fired nor cancelled."""
        return not (self._fired or self._cancelled)

    def cancel(self) -> bool:
        """Disarm the timer; returns False if it already fired.

        Cancelling an already-cancelled timer is a no-op returning True.
        """
        if self._fired:
            return False
        self._cancelled = True
        self._fn = None
        self._args = ()
        return True

    def _fire(self) -> None:
        if self._cancelled:
            return
        self._fired = True
        fn = self._fn
        args = self._args
        self._fn = None
        self._args = ()
        if args:
            fn(*args)
        else:
            fn()


def _without_kernel_frame(exc: BaseException) -> BaseException:
    """``exc`` with the catching kernel frame cut from its traceback.

    That frame (``Process._step`` or ``_throw``) holds the process, whose
    ``done`` future is about to hold ``exc``: left in, it would make
    every failed process a reference cycle.  The model frames below it,
    where the error was raised, stay.
    """
    return exc.with_traceback(exc.__traceback__.tb_next)


class Process:
    """A generator-based cooperative process.

    Created via :meth:`Simulator.spawn`.  The process's eventual return
    value (or exception) is exposed through :attr:`done`, itself a
    :class:`Future`.
    """

    __slots__ = (
        "sim",
        "name",
        "body",
        "done",
        "_send",
        "_step_bound",
        "_resume_bound",
        "_waiting",
    )

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = ""):
        self.sim = sim
        self.name = name or getattr(body, "__name__", "process")
        self.body = body
        # Pool-backed like Simulator.future(): model layers spawn a
        # process per request/packet, so done-future churn feeds the
        # same free list the contention primitives recycle into.
        pool = sim._future_pool
        self.done = pool.pop() if pool else Future(sim)
        # Pre-bound callables: creating a bound method object per event
        # (every `self._step` placed in a queue entry, every
        # `self._resume` handed to add_callback) costs an allocation on
        # the hottest kernel paths; binding once at spawn removes it.
        self._send = body.send
        self._step_bound = self._step
        self._resume_bound = self._resume
        self._waiting: Optional[Future] = None

    def _step(self, send_value: Any = None) -> None:
        try:
            yielded = self._send(send_value)
        except StopIteration as stop:
            self._step_bound = self._resume_bound = None
            self.done.set_result(stop.value)
            return
        except BaseException as exc:  # model bug: propagate through done
            self._step_bound = self._resume_bound = None
            self.done.set_exception(_without_kernel_frame(exc))
            return
        # Refcount-checked recycle of the future this step consumed.
        # Once ``send`` has resumed the generator, the frame's reference
        # to the yielded future is gone; if the refcount then shows that
        # only this function can still see the object (``w`` plus
        # getrefcount's own argument — no user variable, no container,
        # no pending callback), nobody can ever observe it again and it
        # can go straight back to the simulator's pool.  This is what
        # lets queue/timeout futures — whose creators cannot know when
        # the consumer is done with them — feed the pool at all.
        # CPython-specific by design; any extra reference (a debugger, a
        # user alias, an ``all_of`` closure) just skips the recycle.
        w = self._waiting
        if w is not None:
            self._waiting = None
            if w._done and getrefcount(w) == 2:
                w._done = False
                w._value = None
                w._exception = None
                pool = self.sim._future_pool
                if len(pool) < _FUTURE_POOL_CAP:
                    pool.append(w)
        # Dispatch is inlined for the common yields (exact int, None,
        # exact Future); anything else takes _dispatch_slow.  The inline
        # paths replicate Simulator.schedule(delay, self._step) without
        # the call: bump seq, append to the ring (zero delay) or push on
        # the heap (positive delay).
        sim = self.sim
        cls = type(yielded)
        if cls is int:
            if yielded > 0:
                seq = sim._seq + 1
                sim._seq = seq
                heappush(sim._queue, (sim._now + yielded, seq, self._step_bound, ()))
            elif yielded == 0:
                seq = sim._seq + 1
                sim._seq = seq
                sim._ring_append((seq, self._step_bound, ()))
            else:
                self._throw(SimulationError(f"negative delay: {yielded}"))
        elif yielded is None:
            seq = sim._seq + 1
            sim._seq = seq
            sim._ring_append((seq, self._step_bound, ()))
        elif cls is Future:
            # Inlined Future.add_callback(self._resume_bound): waiting on
            # a future is the second-hottest yield, and the extra call
            # frame is measurable at ping-pong rates.
            self._waiting = yielded
            if yielded._done:
                self._resume(yielded)
            else:
                callbacks = yielded._callbacks
                if callbacks is None:
                    yielded._callbacks = self._resume_bound
                elif type(callbacks) is list:
                    callbacks.append(self._resume_bound)
                else:
                    yielded._callbacks = [callbacks, self._resume_bound]
        else:
            self._dispatch_slow(yielded)

    def _dispatch_slow(self, yielded: Any) -> None:
        """The uncommon yields: subclasses, processes, and misuse."""
        if isinstance(yielded, int):  # bool / int subclasses
            if yielded < 0:
                self._throw(SimulationError(f"negative delay: {yielded}"))
            else:
                self.sim.schedule(yielded, self._step_bound)
        elif isinstance(yielded, Future):
            yielded.add_callback(self._resume_bound)
        elif isinstance(yielded, Process):
            yielded.done.add_callback(self._resume_bound)
        else:
            self._throw(
                SimulationError(
                    f"process {self.name!r} yielded unsupported {yielded!r}"
                )
            )

    def _resume(self, future: Future) -> None:
        # Defer the resumption through the event queue: a future's
        # completion must never run waiter code re-entrantly inside the
        # completer (e.g. a Resource.release handing off mid-release).
        # Single hop: the queued event IS the step — the future's value
        # is extracted here (it is immutable once done) and sent
        # straight into the generator when the entry fires, with no
        # intermediate dispatch.
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        exc = future._exception
        if exc is None:
            sim._ring_append((seq, self._step_bound, (future._value,)))
        else:
            sim._ring_append((seq, self._throw, (exc,)))

    def _throw(self, exc: BaseException) -> None:
        """Resume the generator by raising ``exc`` at its yield point.

        The cold half of :meth:`_step` — splitting it out keeps a
        ``throw``-argument check off the hot step path.  Dispatch of
        whatever the generator yields next goes through the generic
        :meth:`_dispatch_slow` (identical semantics to the inlined
        dispatch, minus the inlining).
        """
        try:
            yielded = self.body.throw(exc)
        except StopIteration as stop:
            self._step_bound = self._resume_bound = None
            self.done.set_result(stop.value)
            return
        except BaseException as raised:  # model bug: propagate through done
            self._step_bound = self._resume_bound = None
            self.done.set_exception(_without_kernel_frame(raised))
            return
        self._dispatch_slow(yielded)


class Simulator:
    """The discrete-event scheduler.

    The clock is an integer tick counter (picoseconds by convention, see
    :mod:`repro.units`).  Use :meth:`schedule` for callback events,
    :meth:`spawn` for processes, and :meth:`run` to execute.

    ``profile=True`` buckets executed events per callback owner into
    :attr:`profile_counts` (and the process-wide :func:`profile_totals`);
    ``trace`` is an optional ``fn(time, seq, owner)`` called for every
    executed event.  Both cost a call per event, so leave them off for
    production runs.  :attr:`tracer` holds the per-packet span
    tracer (:class:`repro.telemetry.SpanTracer`) when one is attached;
    the kernel itself never touches it — model code checks
    ``sim.tracer is not None`` at its instrumentation points — so the
    attribute costs nothing when unset.

    The determinism contract in two events::

        >>> sim = Simulator()
        >>> order = []
        >>> sim.schedule(20, order.append, "second")
        >>> sim.schedule(10, order.append, "first")
        >>> sim.run()
        20
        >>> order
        ['first', 'second']
        >>> sim.events_fired
        2
    """

    __slots__ = (
        "_now",
        "_seq",
        "_queue",
        "_ring",
        "_ring_append",
        "_events_fired",
        "_future_pool",
        "_token",
        "profile",
        "profile_counts",
        "_trace",
        "tracer",
        "named",
        "__dict__",
    )

    def __init__(
        self,
        profile: bool = False,
        trace: Optional[Callable[[int, int, str], None]] = None,
    ):
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._ring: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._ring_append = self._ring.append
        self._events_fired = 0
        self._future_pool: list[Future] = []
        self._token = object()
        """Identifies this simulator's futures (see :meth:`recycle`)."""
        self.profile = bool(profile) or _profile_default
        self.profile_counts: Dict[str, int] = {}
        self._trace = trace
        self.tracer = None
        # Process names only feed the kernel profiler and the raw event
        # trace; when neither is active, hot spawn sites can skip
        # building per-process name strings entirely.
        self.named = self.profile or trace is not None

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Number of events still queued (heap + same-tick ring)."""
        return len(self._queue) + len(self._ring)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ticks."""
        if delay == 0:
            seq = self._seq + 1
            self._seq = seq
            self._ring_append((seq, fn, args))
        elif delay > 0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, seq, fn, args))
        else:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")

    def schedule_at(self, when: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute tick ``when`` (must not be past)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at past tick {when}: clock is already at {self._now}"
            )
        self.schedule(when - self._now, fn, *args)

    def schedule_batch(
        self, delay: int, calls: Iterable[Tuple[Callable[..., None], tuple]]
    ) -> int:
        """Schedule many callbacks for one tick in a single operation.

        ``calls`` is an iterable of ``(fn, args)`` pairs.  Consecutive
        ``seq`` numbers are allocated in iteration order, so the batch
        fires in exactly the order :meth:`schedule` would have produced
        for one call per pair — but a zero-delay batch lands on the
        same-tick ring with a single ``deque.extend`` instead of one
        append per event.  Returns the number of events scheduled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        seq = self._seq
        if delay == 0:
            entries = []
            append = entries.append
            for fn, args in calls:
                seq += 1
                append((seq, fn, args))
            self._ring.extend(entries)
        else:
            queue = self._queue
            when = self._now + delay
            for fn, args in calls:
                seq += 1
                heappush(queue, (when, seq, fn, args))
        count = seq - self._seq
        self._seq = seq
        return count

    def schedule_batch_at(
        self, when: int, calls: Iterable[Tuple[Callable[..., None], tuple]]
    ) -> int:
        """Absolute-tick form of :meth:`schedule_batch`.

        Schedules every ``(fn, args)`` pair for tick ``when`` (must not
        be in the past) in one operation, preserving iteration order.
        The coarse-tick flow-level updates (:mod:`repro.flow`) install
        all window boundaries that land on one grid tick through this,
        so a thousand background flows cost a handful of batched
        scheduling operations instead of per-flow heap traffic.
        Returns the number of events scheduled.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at past tick {when}: clock is already at {self._now}"
            )
        return self.schedule_batch(when - self._now, calls)

    def future(self) -> Future:
        """Create a pending future bound to this simulator (pool-backed)."""
        pool = self._future_pool
        if pool:
            return pool.pop()
        return Future(self)

    def recycle(self, future: Future) -> None:
        """Return a completed, no-longer-referenced future to the pool.

        Only the creator of a future can know nobody else holds it, so
        recycling is explicit and opt-in (the contention primitives in
        :mod:`repro.sim.resource` recycle their internal futures).
        Recycling a pending future — which includes recycling the same
        future twice — is an error.
        """
        if future._owner is not self._token:
            raise SimulationError("cannot recycle a future from another simulator")
        if not future._done:
            raise SimulationError("cannot recycle a pending future")
        future._done = False
        future._value = None
        future._exception = None
        pool = self._future_pool
        if len(pool) < _FUTURE_POOL_CAP:
            pool.append(future)

    def completed(self, value: Any = None) -> Future:
        """Create an already-completed future (handy for fast paths)."""
        future = self.future()
        future.set_result(value)
        return future

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a process; its first step runs at the current tick."""
        process = Process(self, body, name)
        # Inlined schedule(0, ...): spawn is hot enough in the model
        # layers (a process per packet hop) for the call to show up.
        seq = self._seq + 1
        self._seq = seq
        self._ring_append((seq, process._step_bound, ()))
        return process

    def spawn_at(self, when: int, body: ProcessBody, name: str = "") -> Process:
        """Start a process at absolute tick ``when``."""
        process = Process(self, body, name)
        self.schedule_at(when, process._step)
        return process

    def timeout(self, delay: int, value: Any = None) -> Future:
        """A future that completes ``delay`` ticks from now."""
        pool = self._future_pool
        future = pool.pop() if pool else Future(self)
        if delay > 0:
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, (self._now + delay, seq, future.set_result, (value,)))
        elif delay == 0:
            seq = self._seq + 1
            self._seq = seq
            self._ring_append((seq, future.set_result, (value,)))
        else:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return future

    def call_later(self, delay: int, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` after ``delay`` ticks, cancellably.

        Returns a :class:`Timer` whose :meth:`Timer.cancel` prevents the
        callback from ever running.  The queue entry itself is left in
        place (popping a cancelled timer is a deterministic no-op), so
        cancellation cannot perturb the event order of anything else.
        """
        timer = Timer(fn, args)
        self.schedule(delay, timer._fire)
        return timer

    def all_of(self, futures: Iterable[Future]) -> Future:
        """A future completing when every input has completed.

        The combined value is the list of individual values, in input
        order.  An empty input completes immediately with ``[]``.
        """
        futures = list(futures)
        combined = self.future()
        remaining = len(futures)
        if remaining == 0:
            combined.set_result([])
            return combined

        def on_done(_finished: Future) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                combined.set_result([f.value for f in futures])

        for future in futures:
            future.add_callback(on_done)
        return combined

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Execute events until the queue drains or limits are hit.

        ``until`` is an absolute tick: events scheduled strictly after it
        stay queued and the clock is left at ``until``.  An ``until``
        already in the past is clamped — the call is a no-op returning
        ``now``; the clock never rewinds.  ``max_events`` bounds the
        number of events executed in this call (a guard against
        accidental infinite event loops in tests).

        Returns the simulated time at exit.
        """
        if until is not None and until < self._now:
            return self._now
        if max_events is None:
            self._drain(until)
        elif self._drain_bounded(until, max_events, _NEVER) == "budget":
            return self._now
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until(self, future: Future, max_events: Optional[int] = None) -> Any:
        """Run until ``future`` completes and return its value.

        Raises :class:`SimulationError` if the event queue drains first.
        """
        stopped = self._drain_bounded(None, max_events, future)
        if stopped == "budget":
            raise SimulationError(f"exceeded max_events={max_events}")
        if stopped == "drained":
            raise SimulationError("event queue drained before future completed")
        return future.value

    # Both drain loops recover the executed-event count in ``finally``
    # from the seq and pending-entry deltas (every seq allocation
    # accompanies exactly one queue/ring push), keeping a counter out of
    # the per-event loop.

    def _drain(self, until: Optional[int]) -> None:
        """Execute every event up to ``until`` (see "Tick drain" above).

        Leaves the clock at the last executed tick.
        """
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        instrument = (
            self._instrument if self.profile or self._trace is not None else None
        )
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            while True:
                now = self._now
                while queue and queue[0][0] <= now:
                    when, seq, fn, args = pop(queue)
                    if instrument is not None:
                        instrument(when, seq, fn)
                    if args:
                        fn(*args)
                    else:
                        fn()
                # Nothing left can become due at this tick, so the ring
                # drains with no merge test.
                while ring:
                    seq, fn, args = popleft()
                    if instrument is not None:
                        instrument(now, seq, fn)
                    if args:
                        fn(*args)
                    else:
                        fn()
                if not queue:
                    return
                when = queue[0][0]
                if until is not None and when > until:
                    return
                self._now = when
        finally:
            self._count_executed(seq_before, pending_before)

    def _drain_bounded(
        self, until: Optional[int], max_events: Optional[int], stop
    ) -> str:
        """:meth:`_drain` that can also stop mid-tick.

        Stops before the first event that would run once ``stop`` is
        done (``"stopped"``) or once ``max_events`` events have run
        (``"budget"``); otherwise ends like :meth:`_drain`, when the
        next event lies past ``until`` (``"until"``) or both queues are
        empty (``"drained"``).  The two per-event checks measurably slow
        the kernel microbenchmarks, which is why :meth:`run` without a
        budget takes the plain loop.
        """
        queue = self._queue
        ring = self._ring
        pop = heappop
        popleft = ring.popleft
        instrument = (
            self._instrument if self.profile or self._trace is not None else None
        )
        # -1 never reaches zero: an unbounded run_until never stops on it.
        budget = -1 if max_events is None else max_events
        seq_before = self._seq
        pending_before = len(queue) + len(ring)
        try:
            while True:
                now = self._now
                while queue and queue[0][0] <= now:
                    if stop._done:
                        return "stopped"
                    if budget == 0:
                        return "budget"
                    budget -= 1
                    when, seq, fn, args = pop(queue)
                    if instrument is not None:
                        instrument(when, seq, fn)
                    if args:
                        fn(*args)
                    else:
                        fn()
                while ring:
                    if stop._done:
                        return "stopped"
                    if budget == 0:
                        return "budget"
                    budget -= 1
                    seq, fn, args = popleft()
                    if instrument is not None:
                        instrument(now, seq, fn)
                    if args:
                        fn(*args)
                    else:
                        fn()
                if stop._done:
                    return "stopped"
                if not queue:
                    return "drained"
                when = queue[0][0]
                if until is not None and when > until:
                    return "until"
                if budget == 0:
                    return "budget"
                self._now = when
        finally:
            self._count_executed(seq_before, pending_before)

    def _count_executed(self, seq_before: int, pending_before: int) -> None:
        """Add the events a drain loop just executed to both totals."""
        global _events_fired_total
        executed = (
            (self._seq - seq_before)
            + pending_before
            - len(self._queue)
            - len(self._ring)
        )
        self._events_fired += executed
        _events_fired_total += executed

    # -- instrumented execution (profile / trace) ---------------------------

    def _instrument(self, when: int, seq: int, fn: Callable[..., None]) -> None:
        """Profile/trace one about-to-execute event."""
        if self.profile:
            label = owner_label(fn)
            counts = self.profile_counts
            counts[label] = counts.get(label, 0) + 1
            _profile_totals[label] = _profile_totals.get(label, 0) + 1
        trace = self._trace
        if trace is not None:
            trace(when, seq, owner_label(fn))
