"""The closed forms' outputs, n by n, against tests/data/fingerprints.json.

fingerprints.py says what one fingerprint covers and how to regenerate
the file; CI checks every n < 700 with it, this suite n < 300.
"""

from mersexp import closed_form, kasami_inverse, kasami_invertible

from fingerprints import moved


def test_every_closed_form_output_matches_its_fingerprint():
    assert moved(300) == [], "(kind, first n whose output moved)"


def test_a_planted_fault_names_its_kind_and_first_n(monkeypatch):
    # one flipped byte in every NDODD flat moves kasami from the least n
    # with an NDODD case on, and leaves gold and bracken-leander alone
    n_stop = 40
    first = min(
        n
        for n in range(4, n_stop)
        for r in range(1, n)
        if kasami_invertible(r, n)
        and kasami_inverse(r, n).case_label.startswith("KASAMI_NDODD")
    )
    rows = closed_form._ndodd_rows

    def planted(m, e, d):
        flat = rows(m, e, d)
        return flat[:-1] + bytes([flat[-1] ^ 1])

    monkeypatch.setattr(closed_form, "_ndodd_rows", planted)
    assert moved(n_stop) == [("kasami", first)]
