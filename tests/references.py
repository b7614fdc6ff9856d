"""Reference definitions shared by the test modules.

The checker decides weak extension with `wellformed.wf_extension`, which
compares a prefix because contexts are stacks.  The reference here is the
name-aligned walk that check replaced: it also accepts new existentials
between old entries, so on the contexts the checker builds the two must
agree.
"""

from polarf import Context, Universal, extends


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
