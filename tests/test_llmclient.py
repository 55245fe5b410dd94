import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from claimaug.errors import LlmTransportError
from claimaug.llmclient import EchoLlmClient, HttpLlmClient
from conftest import MockLlmClient


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
