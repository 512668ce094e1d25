"""The pin runner of tests/pins.py: a pin passes on its recorded values
and fails, naming the field, on one wrong value."""

import pins


def test_demos_pin_fails_on_a_wrong_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pins, "OUT", str(tmp_path))
    assert pins.main(["demos"]) == 0
    assert capsys.readouterr().out.split()[::3] == ["demos", "OK"]

    recorded = pins.PINS["demos"][1]["moore_graphs"]
    monkeypatch.setitem(pins.PINS["demos"][1], "moore_graphs", "0" * 64)
    assert pins.main(["demos"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[::3] == ["demos", "FAIL"]
    assert lines[1:] == ["    moore_graphs: expected '%s', observed '%s'"
                         % ("0" * 64, recorded)]


def test_unknown_pin_name(capsys):
    assert pins.main(["demos", "no_such_pin"]) == 2
    assert "unknown pin no_such_pin" in capsys.readouterr().err
