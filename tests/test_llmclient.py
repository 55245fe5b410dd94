import io
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaug import augment
from claimaug.augment import LLM_BACKOFF_BASE_S, LLM_BACKOFF_CAP_S, llm_contradict
from claimaug.errors import ConfigurationError, LlmTransportError
from claimaug.llmclient import EchoLlmClient, HttpLlmClient
from claimaug.senttok import LabeledSentence
from conftest import MockLlmClient, last_line_in_fresh_interpreter


class _Handler(BaseHTTPRequestHandler):
    registry = {}

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.registry["last_prompt"] = body.get("prompt")
        self.registry["last_auth"] = self.headers.get("Authorization")
        mode = self.registry.get("mode", "ok")
        if mode == "ok":
            payload = json.dumps({"completion": f"contradicted: {body['prompt'][:20]}"})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload.encode())
        elif mode == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json at all")
        else:
            self.send_response(500)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    _Handler.registry.clear()
    yield f"http://127.0.0.1:{httpd.server_port}/complete"
    httpd.shutdown()


class TestHttpClient:
    def test_posts_prompt_and_reads_completion(self, server):
        client = HttpLlmClient(server)
        reply = client.complete("Contradict this")
        assert reply == "contradicted: Contradict this"
        assert _Handler.registry["last_prompt"] == "Contradict this"

    def test_bearer_token_from_env(self, server, monkeypatch):
        monkeypatch.setenv("CLAIMAUG_LLM_TOKEN", "sekrit")
        HttpLlmClient(server).complete("x")
        assert _Handler.registry["last_auth"] == "Bearer sekrit"

    def test_no_token_no_header(self, server, monkeypatch):
        monkeypatch.delenv("CLAIMAUG_LLM_TOKEN", raising=False)
        HttpLlmClient(server).complete("x")
        assert _Handler.registry["last_auth"] is None

    def test_http_error_is_transport_error(self, server):
        _Handler.registry["mode"] = "error"
        with pytest.raises(LlmTransportError):
            HttpLlmClient(server).complete("x")

    def test_malformed_json_is_transport_error(self, server):
        _Handler.registry["mode"] = "garbage"
        with pytest.raises(LlmTransportError):
            HttpLlmClient(server).complete("x")

    def test_unreachable_endpoint(self):
        client = HttpLlmClient("http://127.0.0.1:1/nothing", timeout=0.2)
        with pytest.raises(LlmTransportError):
            client.complete("x")


class _Reply:
    """What `urlopen` returns: a context manager with a readable body."""

    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return io.BytesIO(self.body)

    def __exit__(self, *exc):
        return False


def scripted_urlopen(monkeypatch, *outcomes):
    """Replace `urlopen`: each call takes the next outcome, an exception or a reply body."""
    calls = []

    def urlopen(request, timeout):
        calls.append(request.full_url)
        outcome = outcomes[min(len(calls), len(outcomes)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return _Reply(outcome)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return calls


def http_error(code: int) -> urllib.error.HTTPError:
    return urllib.error.HTTPError("http://llm.invalid/complete", code, f"status {code}",
                                  {}, None)


class TestRetryOnlyTransientErrors:
    ENDPOINT = "http://llm.invalid/complete"

    @pytest.mark.parametrize("code", [400, 401, 403, 404, 429])
    def test_4xx_is_a_configuration_error_and_not_retried(self, monkeypatch, code):
        calls = scripted_urlopen(monkeypatch, http_error(code))
        pauses = []
        with pytest.raises(ConfigurationError) as exc:
            llm_contradict("Tea helps.", HttpLlmClient(self.ENDPOINT), 1, retries=3,
                           sleep=pauses.append)
        assert f"HTTP {code}" in str(exc.value)
        assert len(calls) == 1 and pauses == []

    @pytest.mark.parametrize("error", [
        http_error(500), http_error(503), urllib.error.URLError("connection refused"),
        TimeoutError("timed out"), ConnectionResetError("reset by peer"),
    ])
    def test_transient_errors_are_retried(self, monkeypatch, error):
        calls = scripted_urlopen(monkeypatch, error, error, b'{"completion": "Not so."}')
        client = HttpLlmClient(self.ENDPOINT)
        pauses = []
        assert llm_contradict("Tea helps.", client, 1, retries=3,
                              sleep=pauses.append) == "Not so."
        assert len(calls) == 3 and len(pauses) == 2

    def test_transient_errors_exhaust_the_retries(self, monkeypatch):
        calls = scripted_urlopen(monkeypatch, http_error(502))
        pauses = []
        with pytest.raises(LlmTransportError):
            llm_contradict("Tea helps.", HttpLlmClient(self.ENDPOINT), 1, retries=3,
                           sleep=pauses.append)
        assert len(calls) == 3 and len(pauses) == 2

    @pytest.mark.parametrize("body, message", [
        (b'{"completion": "Not \xff so."}', "returned a body that is not UTF-8"),
        (b'{"completion": null}', "'completion' is NoneType, not a string"),
    ], ids=["not-utf8", "null-completion"])
    def test_malformed_body_is_a_transport_error(self, monkeypatch, body, message):
        calls = scripted_urlopen(monkeypatch, body)
        with pytest.raises(LlmTransportError, match=message):
            HttpLlmClient(self.ENDPOINT).complete("Tea helps.")
        assert len(calls) == 1

    def test_success_does_not_pause(self, monkeypatch):
        scripted_urlopen(monkeypatch, b'{"completion": "Not so."}')
        pauses = []
        llm_contradict("Tea helps.", HttpLlmClient(self.ENDPOINT), 1, sleep=pauses.append)
        assert pauses == []


def failing_pauses(retries: int, seed: int) -> list[float]:
    """The pauses `llm_contradict` takes when every attempt is a transport error."""
    pauses = []
    with pytest.raises(LlmTransportError):
        llm_contradict("s", MockLlmClient(fail_times=retries), 1, retries=retries, seed=seed,
                       sleep=pauses.append)
    return pauses


class TestBackoff:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_pauses_double_within_their_jitter_and_stay_bounded(self, retries, seed):
        pauses = failing_pauses(retries, seed)
        assert len(pauses) == retries - 1
        for k, pause in enumerate(pauses):
            full = min(LLM_BACKOFF_CAP_S, LLM_BACKOFF_BASE_S * 2 ** k)
            assert full / 2 <= pause <= full
        assert sum(pauses) <= (retries - 1) * LLM_BACKOFF_CAP_S

    def test_jitter_is_seeded(self):
        assert failing_pauses(4, seed=3) == failing_pauses(4, seed=3)
        assert failing_pauses(4, seed=3) != failing_pauses(4, seed=4)

    def test_augment_passes_the_trial_seed(self, monkeypatch):
        seen = []

        def contradict(text, client, variant, retries=3, *, seed=0, sleep=None):
            seen.append(seed)
            return "Not so."

        monkeypatch.setattr(augment, "llm_contradict", contradict)
        source = LabeledSentence("d", 0, ("Tea", "helps", "."), ("CLA",) * 3, "CLA")
        sample = augment._llm_sample(source, MockLlmClient(reply="x"), 1, seed=1234)
        assert seen == [1234] and sample.seed == 1234


class TestOfflineClients:
    def test_mock_records_prompts(self):
        client = MockLlmClient(reply="r")
        client.complete("a")
        client.complete("b")
        assert client.prompts == ["a", "b"]

    def test_mock_replies_consumed_in_order(self):
        client = MockLlmClient(replies=["one", "two"])
        assert client.complete("p") == "one"
        assert client.complete("p") == "two"

    def test_echo_contradicts_quoted_sentence(self):
        client = EchoLlmClient()
        reply = client.complete('Contradict this sentence with colorful words "Tea helps."')
        assert reply == "It is absolutely not true that Tea helps."


HTTP_STACK_PROBE = """
import sys, tempfile
from claimaug import cli
with tempfile.TemporaryDirectory() as work:
    assert cli.main(["make-fixture", "--seed", "5", "--out", f"{work}/fx",
                     "--sizes", "CLA=12,EXP=30,O=120,PER=40,QUE=30"]) == 0
    assert cli.main(["augment", "--data", f"{work}/fx/corpus.tsv",
                     "--schema", f"{work}/fx/schema.cfg", "--method", "llm",
                     "--target-class", "CLA", "--n-samples", "5", "--seed", "7",
                     "--offline", "--out", f"{work}/out"]) == 0
print([m for m in ("urllib.request", "http.client", "ssl") if m in sys.modules])
"""


def test_offline_commands_do_not_load_the_http_stack():
    assert last_line_in_fresh_interpreter(HTTP_STACK_PROBE) == "[]"
