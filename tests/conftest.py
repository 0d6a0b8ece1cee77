import json

acceptance_lines = []
# one dict per criterion: number, PASS/FAIL, description and detail
acceptance_records = []


def pytest_sessionfinish(session):
    if acceptance_records:
        path = session.config.rootpath / "acceptance.json"
        path.write_text(json.dumps(acceptance_records, indent=2) + "\n")


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
