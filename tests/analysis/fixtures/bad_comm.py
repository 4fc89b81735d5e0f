"""Deliberately bad module for COM001: ad-hoc wire framing outside repro.comm.

Never imported — parsed only.  Every construct below is a way a trainer
could grow its own wire protocol instead of going through the channel
layer; the tests assert exact finding counts against this file.
"""

import socket  # COM001
import struct  # COM001
from multiprocessing import connection  # COM001
from multiprocessing.connection import wait  # COM001
from socket import AF_INET, SOCK_STREAM  # COM001

__all__ = ["recv_raw", "send_raw", "dial"]

_HEADER = struct.Struct("<I")


def dial(host, port):
    sock = socket.socket(AF_INET, SOCK_STREAM)
    sock.connect((host, port))
    return sock


def send_raw(conn, codec, msg):
    raw = codec.join_segments(codec.message_segments(msg))  # COM001
    conn.send_bytes(_HEADER.pack(len(raw)) + raw)


def recv_raw(conn, decode_message):
    wait([conn])
    raw = conn.recv_bytes()
    return decode_message(raw[_HEADER.size :])  # COM001
