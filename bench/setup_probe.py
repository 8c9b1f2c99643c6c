"""Set-up probe: what a fresh CLI process pays before any session runs.

    PYTHONPATH=src python3 bench/setup_probe.py SCENARIO.json

Imports the CLI (and with it every ``hpqkd`` module), loads and resolves the
scenario and builds the session configs, then exits.  ``run.py`` times the
whole process from outside, so interpreter start-up is included.
"""
import sys

if __name__ == "__main__":
    from hpqkd import cli, scenario  # noqa: F401 - the CLI's own import chain

    _, resolved = scenario.load(sys.argv[1])
    scenario.build_session_configs(resolved)
