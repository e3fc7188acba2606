"""Serving data plane: one authenticated socket per server actor.

Ray is the serving pool's control plane (placing, constructing and
killing the server actors).  A per-query request is a few hundred bytes
each way and a Ray actor task costs far more CPU than that, so every
request after construction travels here:

- :meth:`Server.rpc_address`, a serving actor's one Ray method, opens a
  listener on the node's IP with a fresh authkey (which only travels
  over Ray) and closes it once one client passes the HMAC challenge.
  A reader thread queues that client's requests, so its sends never
  wait on unread replies; a worker thread serves them in order.
- :func:`connect` asks every actor for its address without waiting, so
  the actors of several engines start in parallel; a :class:`Conn`
  connects on its first call.  :meth:`Conn.call` returns a
  :class:`Reply` at once and :func:`get` waits, like ``ray.get``;
  replies come back in send order, so any number may be in flight.

A server method's exception is re-raised at the driver with its type;
a server whose process is gone raises :class:`ServerDied` at once.
"""

from __future__ import annotations

import pickle
import queue
import secrets
import threading
import traceback
from multiprocessing.connection import AuthenticationError, Client, Listener
from typing import NamedTuple

import ray


class ServerDied(RuntimeError):
    """The server's process is gone (killed, crashed, or its node lost)."""


class Server:
    """Mixin for a serving actor class: :meth:`rpc_address` starts the
    data plane; every other method is then called through it."""

    def rpc_address(self) -> tuple:
        if getattr(self, "_rpc_served", False):
            raise RuntimeError("this server already has its connection")
        self._rpc_served = True
        key = secrets.token_bytes(32)
        listener = Listener((ray.util.get_node_ip_address(), 0), authkey=key)
        threading.Thread(target=_accept, args=(self, listener), daemon=True).start()
        return listener.address, key


def _accept(obj, listener) -> None:
    while True:
        try:
            conn = listener.accept()
            break
        except (AuthenticationError, EOFError, OSError):
            continue  # a client that failed the challenge: wait for the next
    listener.close()
    requests: queue.SimpleQueue = queue.SimpleQueue()
    threading.Thread(target=_serve, args=(obj, conn, requests), daemon=True).start()
    while True:
        try:
            requests.put(conn.recv_bytes())
        except (EOFError, OSError):
            requests.put(None)  # the driver closed the connection
            return


def _serve(obj, conn, requests) -> None:
    while (msg := requests.get()) is not None:
        try:
            method, args, kwargs = pickle.loads(msg)
            reply = (True, getattr(obj, method)(*args, **kwargs))
        except Exception as e:
            e.add_note("".join(traceback.format_exception(e)).rstrip())
            reply = (False, e)
        try:
            conn.send_bytes(_dumps(reply))
        except (EOFError, OSError):
            return


def _dumps(reply) -> bytes:
    """Pickle a reply; a value or exception that does not survive the
    round trip becomes a ``RuntimeError`` carrying its repr."""
    try:
        data = pickle.dumps(reply, protocol=5)
        if not reply[0]:
            pickle.loads(data)  # some exception classes fail to rebuild
        return data
    except Exception as e:
        ok, value = reply
        what = f"a {type(value).__name__} reply" if ok else repr(value)
        err = RuntimeError(f"{what} does not pickle: {e!r}")
        return pickle.dumps((False, err), protocol=5)


class Conn:
    """The driver's end of one server's connection.  Thread-safe: a
    lock orders sends, and replies are matched to handles by sequence
    number, so callers may wait for their handles in any order."""

    def __init__(self, name: str, address_ref: ray.ObjectRef):
        self.name = name
        self._address = address_ref  # of ``(address, authkey)``
        self._conn = None
        self._lock = threading.Lock()
        self._sent = self._got = 0
        self._early: dict[int, bytes] = {}  # replies read before their handle

    def call(self, method: str, *args, **kwargs) -> Reply:
        data = pickle.dumps((method, args, kwargs), protocol=5)
        with self._lock:
            if self._conn is None:  # the first call waits for the actor
                address, key = self._io(ray.get, self._address)
                self._conn = self._io(Client, address, authkey=key)
            self._io(self._conn.send_bytes, data)
            self._sent += 1
            return Reply(self, self._sent - 1)

    def _wait(self, seq: int) -> tuple:
        with self._lock:
            while self._got <= seq:
                self._early[self._got] = self._io(self._conn.recv_bytes)
                self._got += 1
            data = self._early.pop(seq)
        return pickle.loads(data)

    def _io(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (EOFError, OSError, ray.exceptions.RayActorError) as e:
            raise ServerDied(f"server {self.name} is gone: {e!r}") from e

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()


class Reply(NamedTuple):
    """A pending server reply; :func:`get` waits for it."""

    conn: Conn
    seq: int


def connect(actors: list) -> list[Conn]:
    """One :class:`Conn` per actor (each class mixes in :class:`Server`)."""
    return [Conn(repr(a), a.rpc_address.remote()) for a in actors]


def get(replies):
    """Wait for one reply or a list of them, like ``ray.get``.  A list
    is drained in full before the first failure is raised, so no reply
    is left unread on its connection."""
    one = isinstance(replies, Reply)
    outs = [r.conn._wait(r.seq) for r in ([replies] if one else replies)]
    for ok, value in outs:
        if not ok:
            raise value
    return outs[0][1] if one else [value for _, value in outs]
