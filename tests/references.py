"""Reference definitions shared by the test modules.

The checker decides weak extension with `wellformed.wf_extension`, which
compares a prefix because contexts are stacks.  The reference here is the
name-aligned walk that check replaced: it also accepts new existentials
between old entries, so on the contexts the checker builds the two must
agree.

The parser finds a program's declaration block with one search for the
first line whose first token is `run`.  The reference here is the line
walk that search replaced, which reads each line's first token.
"""

from polarf import Context, Universal, extends
from polarf.parser import _TOKEN, MEMO_TEXT_MAX


def ref_weak_extends(theta, theta_prime):
    """Walk both contexts from the end, matching theta's entries by name and
    skipping the existentials theta lacks, wherever they are."""
    i = len(theta.entries) - 1
    for e2 in reversed(theta_prime.entries):
        if not isinstance(e2, Universal) and e2.name not in theta.evar_names \
                and e2.name not in theta.uvar_names:
            continue
        if i < 0 or not extends(Context((theta.entries[i],)), Context((e2,))):
            return False
        i -= 1
    return i < 0


def ref_block_length(src):
    """The offset of the first line whose first token is `run`, if it is
    at most MEMO_TEXT_MAX; else None."""
    offset = 0
    while offset <= MEMO_TEXT_MAX:
        end = src.find("\n", offset)
        line = src[offset:] if end < 0 else src[offset:end]
        if _TOKEN.match(line)[2] == "run":
            return offset
        if end < 0:
            return None
        offset = end + 1
    return None
