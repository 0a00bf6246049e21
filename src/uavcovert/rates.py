"""Rate chain through the untrusted amplify-and-forward relay.

The relay can decode what it forwards, so it doubles as an eavesdropper:
its decodable capacity C_u is subtracted from the destination capacity C_b
to form the secrecy rate C_s = C_b - C_u.  The covert rate objective R_b
equals C_b.  The destination sees the source symbol through the relay's
unit-power scaling, with the relay noise re-amplified and the receiver's
own jamming cancelled (full-duplex self-interference cancellation).

The signal-level oracle :func:`simulate_destination_snr` draws the source
symbols, the jamming, the relay noise and the receiver noise in that order,
one thread ahead of the calling thread (:func:`_ahead`, the package's one
thread helper), and pushes them through the chain in place on the calling
thread, in three length-n float arrays, one complex chunk buffer and a ring
of four chunk buffers for the draws, about 24 bytes per symbol.
"""
from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .errors import _integer
if TYPE_CHECKING:
    from .model import Scenario


def capacity(snrs) -> list[float]:
    """Shannon capacities log2(1 + snr), bits per channel use, of every SNR
    in the array-like ``snrs``: a list of floats in C order, one element
    for a float.

    Every capacity in the package is taken here, by ``math.log2`` on each
    element, never ``np.log2``: on an AVX-512 Xeon (numpy 2.4.6) the two
    differed by one ULP on 12,102 of 4e6 values of 1 + U(0, 1), enough to
    move the optimizer's argmax and the CSV bytes.
    """
    return list(map(math.log2, (1.0 + np.asarray(snrs, dtype=float)).ravel().tolist()))


def snrs_at(scenario: Scenario, p_u, p_j, h):
    """Relay and destination SNRs ``(gamma_u, gamma_b)`` at forward power
    ``p_u``, jamming power ``p_j`` and altitude ``h``, the other fields
    taken from ``scenario``.

    gamma_u is the SNR of the source signal as decodable by the
    (eavesdropping) relay:

        gamma_u = P_a |h_ua|^2 / (P_J |h_ub|^2 + sigma_u^2)

    gamma_b is the end-to-end SNR at the receiver through the relay:

        gamma_b = P_u P_a |h_ub|^2 |h_ua|^2 /
            ((P_u sigma_u^2 + P_J sigma_b^2) |h_ub|^2
             + P_a |h_ua|^2 sigma_b^2 + sigma_b^2 sigma_u^2)

    which is the post-cancellation signal-to-noise ratio after dividing
    out the relay scaling G.

    The LOS gains are |h_ui|^2 = beta / (d_i^2 + h^2) (a scenario's d^2 > 0
    keeps their denominators positive).  Only plain arithmetic
    operators appear, so floats and broadcast numpy arrays take this one
    path and round identically element by element; ``h`` must be finite
    and >= 0.
    """
    s = scenario
    hh = h * h
    g_ua = s.beta / (s.d_a2 + hh)
    g_ub = s.beta / (s.d_b2 + hh)
    gamma_u = s.p_a * g_ua / (p_j * g_ub + s.sigma_u2)
    num = p_u * s.p_a * g_ub * g_ua
    den = ((p_u * s.sigma_u2 + p_j * s.sigma_b2) * g_ub
           + s.p_a * g_ua * s.sigma_b2 + s.sigma_b2 * s.sigma_u2)
    return gamma_u, num / den


# Symbols per chunk of the simulator's buffers.  Complex abs needs complex
# storage, and 2^14 symbols (256 KiB complex, 128 KiB real) keep that
# scratch in cache at a negligible share of the length-n arrays.  No
# element's operations depend on it, so the results do not either.
_CHUNK = 1 << 14
# Chunk buffers in the ring of simulate_destination_snr's draws, 4 x 2^14
# floats, 512 KiB; _ahead at this depth refills none the caller still holds.
_RING = 4


def _chunks(n: int, *scratch: np.ndarray):
    """Each slice of the length-n arrays, in order, as long as the first
    scratch buffer (the last one shorter), with a view of as many elements
    of each scratch buffer."""
    step = len(scratch[0])
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield (slice(lo, hi), *(b[:hi - lo] for b in scratch))


@contextmanager
def _ahead(items, depth: int):
    """An iterator over ``items`` that one more thread runs ahead of the
    caller.  That thread holds at most ``depth`` items the caller is not
    done with, and the caller is done with an item once it asks for the
    next.  An exception on that thread is raised by the caller's iterator
    in the place of the item it cut short.  On exit the thread stops before
    its next item and is joined."""
    items, made = iter(items), deque()  # made: (item, None) or (None, exception)
    slots, ready = threading.Semaphore(depth), threading.Semaphore(0)
    stop = False

    def run() -> None:
        try:
            while slots.acquire() and not stop:
                made.append((next(items), None))
                ready.release()
        except BaseException as exc:  # StopIteration once items run out
            made.append((None, exc))
            ready.release()

    def taken():
        while True:
            ready.acquire()
            item, exc = made.popleft()
            if isinstance(exc, StopIteration):
                return
            if exc is not None:
                raise exc
            yield item
            slots.release()

    thread = threading.Thread(target=run)
    thread.start()
    try:
        yield taken()
    finally:
        stop = True
        slots.release()  # wakes a thread that waits for a slot
        thread.join()


def _normals(rng: np.random.Generator, ring: np.ndarray, n: int, segments: int):
    """``segments`` segments of n standard normals of ``rng``, in stream
    order, each drawn chunk by chunk as :func:`_chunks` cuts it (chunk by
    chunk gives the values of one draw) into the next row of ``ring``, a
    ring of chunk buffers."""
    buffers = itertools.cycle(ring)
    for _ in range(segments):
        for k, _ in _chunks(n, ring[0]):
            yield rng.standard_normal(out=next(buffers)[:k.stop - k.start])


def simulate_destination_snr(scenario: Scenario, n_symbols: int,
                             seed) -> tuple[float, float]:
    """Estimate the destination SNR by pushing symbols through the chain:
    ``(snr, forwarded_power)``, the second the mean |x_u|^2, which the
    relay scaling makes 1.

    Draws source, jamming, and noise symbols; forms the relay's received
    waveform; scales it by G; and splits the receiver's observation into
    its source-signal and noise components (the receiver's own jamming is
    cancelled); the SNR is the ratio of their mean powers.  Independent of
    the closed forms, so it serves as their oracle.

    The stream is consumed in a fixed order, each complex stream as
    ``n_symbols`` real parts then ``n_symbols`` imaginary parts: the source
    symbols x_a, the jamming x_j, the relay noise n_u, the receiver noise
    n_b.  One more thread draws these eight segments, chunk by chunk, into
    a ring of buffers (:func:`_normals` through :func:`_ahead`) while the
    calling thread applies each chunk's arithmetic; chunk by chunk gives
    the values of one draw, and the thread is joined before the call
    returns or raises.

    The chain runs in place in three length-n float arrays, allocated (as
    is the ring) and filled on the calling thread, about 24 bytes per
    symbol (24 MB at 1e6 symbols): the real and imaginary parts of the
    running sum, and one more.  x_a is held whole while |c x_a|^2 fills the third array, since
    each power is one ``np.mean`` over a full-length array: its pairwise
    sum depends on the whole array, so a chunked mean would round
    differently.  Each |z| is numpy's complex ``abs`` over a chunk copied
    into complex scratch; ``np.hypot`` differs from it in the last bit.
    When the imaginary part of n_u completes y_u, |G y_u|^2 overwrites
    y_u's real part and n_u's imaginary part takes the place of its own.
    Every element sees the operations of the one-array-per-expression form,
    in its association, so the result is bit-equal to it, whatever the
    threads' scheduling.
    """
    n = _integer("n_symbols", n_symbols, 1)
    s = scenario
    rng = np.random.default_rng(seed)
    g_ua = s.beta / (s.d_a2 + s.h * s.h)
    g_ub = s.beta / (s.d_b2 + s.h * s.h)
    amp_ua = math.sqrt(s.p_a * g_ua)
    amp_jam = math.sqrt(s.p_j * g_ub)
    amp_ub = math.sqrt(s.p_u * g_ub)
    g = 1.0 / math.sqrt(s.p_a * g_ua + s.p_j * g_ub + s.sigma_u2)  # unit |x_u|^2
    unit = math.sqrt(1.0 / 2.0)
    scale_u = math.sqrt(s.sigma_u2 / 2.0)
    scale_b = math.sqrt(s.sigma_b2 / 2.0)

    re, im, w = np.empty(n), np.empty(n), np.empty(n)
    z = np.empty(min(n, _CHUNK), dtype=complex)
    ring = np.empty((_RING, min(n, _CHUNK)))
    with _ahead(_normals(rng, ring, n, 8), _RING) as normals:
        for (k, _), b in zip(_chunks(n, z), normals):   # x_a, real
            np.multiply(b, unit, out=re[k])
        c = amp_ub * g * amp_ua
        for (k, zk), b in zip(_chunks(n, z), normals):  # x_a, imaginary
            np.multiply(b, unit, out=im[k])
            np.multiply(re[k], c, out=zk.real)              # received signal
            np.multiply(im[k], c, out=zk.imag)
            np.abs(zk, out=w[k])
            w[k] *= w[k]
            re[k] *= amp_ua
            im[k] *= amp_ua
        signal_power = float(np.mean(w))
        for part in (re, im):                               # + x_j
            for (k, _), b in zip(_chunks(n, z), normals):
                b *= unit
                b *= amp_jam
                part[k] += b
        for (k, _), b in zip(_chunks(n, z), normals):   # n_u, real
            np.multiply(b, scale_u, out=w[k])
            re[k] += w[k]                                   # y_u, real
        c = amp_ub * g
        for (k, zk), b in zip(_chunks(n, z), normals):  # n_u, imaginary
            b *= scale_u
            np.add(im[k], b, out=zk.imag)                   # y_u, imaginary
            np.multiply(zk.imag, g, out=zk.imag)            # x_u = G y_u
            np.multiply(re[k], g, out=zk.real)
            np.abs(zk, out=re[k])
            re[k] *= re[k]
            np.multiply(b, c, out=im[k])
            w[k] *= c
        forwarded_power = float(np.mean(re))
        for (k, _), b in zip(_chunks(n, z), normals):   # n_b, real
            b *= scale_b
            w[k] += b                                       # received noise
        for (k, zk), b in zip(_chunks(n, z), normals):  # n_b, imaginary
            b *= scale_b
            im[k] += b
            zk.real, zk.imag = w[k], im[k]
            np.abs(zk, out=re[k])
            re[k] *= re[k]
    noise_power = float(np.mean(re))
    return signal_power / noise_power, forwarded_power
