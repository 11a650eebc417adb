#include "src/http/client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/http/http.h"

namespace incentag {
namespace http {
namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeadEnd = "\r\n\r\n";
// Responses are held to the same head and body bounds the server puts
// on requests. The largest response the API serves, a 65536-task page
// of `tasks?max=`, is about 3.3 MB even at 19-digit seqs.
constexpr ReadLimits kLimits;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Retry-After as whole seconds (the only form our server emits); -1 for
// absent/unparseable — including the HTTP-date form, which falls back
// to the computed backoff rather than a guessed clock delta.
int64_t ParseRetryAfterMs(const ClientResponse& response) {
  const std::string* value = response.Header("retry-after");
  if (value == nullptr || value->empty()) return -1;
  int64_t seconds = 0;
  for (char c : *value) {
    if (c < '0' || c > '9') return -1;
    seconds = seconds * 10 + (c - '0');
    if (seconds > 1'000'000) break;  // clamped later anyway
  }
  return seconds * 1000;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace

const std::string* ClientResponse::Header(std::string_view name) const {
  for (const auto& h : headers) {
    if (h.first == name) return &h.second;
  }
  return nullptr;
}

util::Status Client::Connect(const std::string& host, uint16_t port) {
  host_ = host;
  port_ = port;
  util::Result<util::Socket> s = util::ConnectTcp(host, port);
  if (!s.ok()) return s.status();
  socket_ = std::move(s).value();
  buf_.clear();
  return util::Status::OK();
}

void Client::Disconnect() {
  socket_.Close();
  buf_.clear();
}

// Backoff for the gap before the attempt'th retry: exponential rung
// with full jitter over its upper half (deterministic given
// jitter_seed), overridden by the server's capped Retry-After when one
// was advertised.
int64_t Client::NextDelayMs(int attempt, int64_t retry_after_ms) {
  if (retry_after_ms >= 0) {
    return std::min<int64_t>(retry_after_ms, retry_.max_retry_after_ms);
  }
  double rung = static_cast<double>(retry_.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) rung *= retry_.multiplier;
  const int64_t capped = std::min<int64_t>(
      retry_.max_backoff_ms, static_cast<int64_t>(rung));
  if (capped <= 1) return capped < 0 ? 0 : capped;
  if (jitter_state_ == 0) jitter_state_ = retry_.jitter_seed | 1;
  const int64_t half = capped / 2;
  return half + static_cast<int64_t>(SplitMix64(&jitter_state_) %
                                     static_cast<uint64_t>(capped - half + 1));
}

util::Result<ClientResponse> Client::Request(std::string_view method,
                                             std::string_view target,
                                             std::string_view body) {
  if (!connected()) {
    return util::Status::FailedPrecondition("client not connected");
  }
  const int max_attempts = std::max(1, retry_.max_attempts);
  util::Result<ClientResponse> r = RoundTrip(method, target, body);
  for (int attempt = 1; attempt < max_attempts; ++attempt) {
    const bool shed =
        r.ok() && r.value().status == 503 && retry_.retry_on_503;
    if (r.ok() && !shed) return r;
    const int64_t delay_ms =
        NextDelayMs(attempt, shed ? ParseRetryAfterMs(r.value()) : -1);
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (!r.ok()) {
      // Transport error: the server idled out the keep-alive connection,
      // or the write/read died mid-flight. Rebuild the connection; safe
      // to resend because the whole API is idempotent. A failed
      // reconnect still counts as this attempt's outcome.
      util::Status reconnected = Connect(host_, port_);
      if (!reconnected.ok()) {
        r = reconnected;
        continue;
      }
    }
    r = RoundTrip(method, target, body);
  }
  return r;
}

util::Result<ClientResponse> Client::RoundTrip(std::string_view method,
                                               std::string_view target,
                                               std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append(method);
  out.push_back(' ');
  out.append(target);
  out.append(" HTTP/1.1");
  out.append(kCrlf);
  out.append("Host: ");
  out.append(host_);
  out.append(kCrlf);
  if (!body.empty()) {
    out.append("Content-Type: application/json");
    out.append(kCrlf);
  }
  out.append("Content-Length: ");
  out.append(std::to_string(body.size()));
  out.append(kCrlf);
  out.append(kCrlf);
  out.append(body);
  INCENTAG_RETURN_IF_ERROR(socket_.WriteAll(out));
  util::Result<ClientResponse> response = ReadResponse();
  // A failed read leaves the stream position unknown (a partial body, or
  // bytes of a response that was refused): drop the connection so no
  // later response is parsed from the middle of this one.
  if (!response.ok()) Disconnect();
  return response;
}

util::Result<ClientResponse> Client::ReadResponse() {
  size_t head_end;
  while ((head_end = buf_.find(kHeadEnd)) == std::string::npos) {
    if (buf_.size() > kLimits.max_head_bytes) {
      return util::Status::Corruption("response head too large");
    }
    char chunk[8192];
    util::Result<size_t> n = socket_.ReadSome(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return util::Status::IoError("connection closed before response");
    }
    buf_.append(chunk, n.value());
  }
  if (head_end > kLimits.max_head_bytes) {
    return util::Status::Corruption("response head too large");
  }

  ClientResponse response;
  std::string_view head = std::string_view(buf_).substr(0, head_end);
  size_t line_end = head.find(kCrlf);
  std::string_view status_line =
      (line_end == std::string_view::npos) ? head : head.substr(0, line_end);
  // "HTTP/1.1 NNN Reason"
  size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || status_line.size() < sp + 4) {
    return util::Status::Corruption("bad status line");
  }
  int status = 0;
  for (int i = 1; i <= 3; ++i) {
    char c = status_line[sp + static_cast<size_t>(i)];
    if (c < '0' || c > '9') {
      return util::Status::Corruption("bad status code");
    }
    status = status * 10 + (c - '0');
  }
  response.status = status;

  std::string_view rest = (line_end == std::string_view::npos)
                              ? std::string_view()
                              : head.substr(line_end + kCrlf.size());
  size_t content_length = 0;
  while (!rest.empty()) {
    size_t end = rest.find(kCrlf);
    std::string_view line =
        (end == std::string_view::npos) ? rest : rest.substr(0, end);
    rest = (end == std::string_view::npos) ? std::string_view()
                                           : rest.substr(end + kCrlf.size());
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name = ToLowerAscii(line.substr(0, colon));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (name == "content-length") {
      if (value.empty()) return util::Status::Corruption("bad content-length");
      content_length = 0;
      for (char c : value) {
        if (c < '0' || c > '9') {
          return util::Status::Corruption("bad content-length");
        }
        // Checked per digit, so the running value never overflows.
        content_length = content_length * 10 + static_cast<size_t>(c - '0');
        if (content_length > kLimits.max_body_bytes) {
          return util::Status::Corruption("response body too large");
        }
      }
    }
    response.headers.emplace_back(std::move(name), std::string(value));
  }

  const size_t total = head_end + kHeadEnd.size() + content_length;
  while (buf_.size() < total) {
    char chunk[8192];
    util::Result<size_t> n = socket_.ReadSome(chunk, sizeof(chunk));
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return util::Status::IoError("connection closed mid-body");
    }
    buf_.append(chunk, n.value());
  }
  response.body = buf_.substr(head_end + kHeadEnd.size(), content_length);
  buf_.erase(0, total);
  return response;
}

}  // namespace http
}  // namespace incentag
