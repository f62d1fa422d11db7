"""Process heap policy: keep freed pages for the next trial.

glibc's malloc serves a request above ``M_MMAP_THRESHOLD`` with its own
``mmap`` and hands the heap top back to the kernel once more than
``M_TRIM_THRESHOLD`` of it is free.  Both thresholds are dynamic: freeing
an mmapped chunk raises the mmap threshold to that chunk's size and the
trim threshold to twice it.  A Fig 10 transmission builds and frees
several 4.4-8.8 MB arrays, so the thresholds settle near the largest one
and every transmission's temporaries, together above the trim threshold,
are trimmed when it ends; the next transmission faults them back in page
by page.

:func:`retain_freed_heap` pins both thresholds at the dynamic rule's
64-bit ceiling, 32 MiB and twice that, so a process keeps up to 64 MiB
of freed heap.  Setting either one alone turns the dynamic rule off and
leaves the other at its 128 KiB start, which is slower than no setting.
The policy changes where memory comes from, never a computed value.
"""

from __future__ import annotations

import os

#: ``mallopt`` parameters from glibc's ``<malloc.h>``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: The dynamic rule's ceiling on 64-bit glibc (``DEFAULT_MMAP_THRESHOLD_MAX``).
MMAP_THRESHOLD_BYTES = 32 << 20
#: glibc's own rule: trim at twice the mmap threshold.
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES


def retain_freed_heap() -> None:
    """Pin glibc's mmap and trim thresholds; elsewhere do nothing.

    The C library is named by ``confstr`` rather than
    ``platform.libc_ver()``, which reads the interpreter's binary.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not libc or not libc.startswith("glibc"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses (a 32-bit build caps the
    # mmap threshold lower); the trim setting alone would be slower
    # than the dynamic rule, so it follows only an accepted mmap one.
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
