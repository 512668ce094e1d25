"""The pin runner of tests/pins.py: a pin passes on its recorded values
and fails, naming the field, on one wrong value; a pin that raises fails
with the exception, and the pins after it still run."""

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


def test_a_pin_that_raises_fails_and_the_rest_run(tmp_path, monkeypatch, capsys):
    # as _bench does when the last line of perfbench's stdout is not JSON
    def broken():
        return {"all": pins.json.loads("Traceback (most recent call last):")}

    monkeypatch.setattr(pins, "OUT", str(tmp_path))
    monkeypatch.setitem(pins.PINS, "bench", (broken, pins.PINS["bench"][1]))
    assert pins.main(["bench", "demos"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[::3] == ["bench", "FAIL"]
    assert lines[1].startswith("    raised JSONDecodeError(")
    assert lines[2].split()[::3] == ["demos", "OK"]
    assert len(lines) == 3
