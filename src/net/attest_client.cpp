#include "net/attest_client.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "net/tcp.hpp"

namespace sacha::net {

namespace {
using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// The Table-4 phase a command of `type` belongs to, as the device sees it.
const char* prover_phase(core::CommandType type) {
  switch (type) {
    case core::CommandType::kIcapConfig:
      return "configure.stream_in";
    case core::CommandType::kIcapReadback:
      return "readback.respond";
    case core::CommandType::kMacChecksum:
      return "mac.sendback";
  }
  return nullptr;
}
}  // namespace

ProverAgent::ProverAgent(const HelloMsg& hello,
                         std::function<void(core::SachaProver&)> after_config)
    : prover_(prover_for(hello)),
      session_(prover_, std::move(after_config), hello.session_seed,
               hello.flip_probability) {}

Bytes ProverAgent::handle_command(
    ByteSpan payload, const std::function<void(core::CommandType)>& on_type) {
  // Each packet is decoded once; its command type decides the boundary.
  auto command = core::Command::decode(payload);
  if (command.ok()) {
    if (on_type) on_type(command.value().type);
    session_.note_command(command.value().type);
  }
  // An undecodable packet goes through handle_packet, whose fault gate
  // runs ahead of its decode (and whose error response it then earns).
  core::SachaProver::HandleResult result =
      command.ok() ? prover_.handle(command.value())
                   : prover_.handle_packet(payload);
  Bytes out;
  if (result.response.has_value()) {
    out.push_back(1);
    append(out, result.response->encode());
  } else {
    out.push_back(0);
  }
  return out;
}

std::function<void(core::SachaProver&)> standard_tamper() {
  return [](core::SachaProver& p) {
    bitstream::Frame f = p.memory().config_frame(5);
    f.flip_bit(7);
    p.memory().write_frame(5, f);
  };
}

namespace {

struct Member {
  std::size_t index = 0;
  TcpChannel channel;
  std::unique_ptr<ProverAgent> agent;
  HelloMsg hello;
  enum class State { kConnecting, kRunning } state = State::kConnecting;
  std::size_t responses_sent = 0;
  bool redirected = false;  // one coordinator hop allowed per session
  Clock::time_point start = Clock::now();
  Clock::time_point last_activity = Clock::now();
  /// Delay-shim queue: responses held until their due time.
  std::deque<std::pair<Clock::time_point, Bytes>> delayed;
  MemberOutcome outcome;
  /// Prover-side phase spans of a head-sampled session, in the prover lane
  /// of its timeline: every member shares the one loop thread.
  obs::SessionTimeline timeline{"prover", /*lane_salt=*/0,
                                /*keep_records=*/false};
};

class LoadRunner {
 public:
  explicit LoadRunner(const LoadOptions& options)
      : opts_(options), shim_rng_(options.shim_seed) {}

  LoadResult run() {
    const auto wall_start = Clock::now();
    if (opts_.trace_sample >= 0.0) {
      obs::Sampler::global().set_rate(opts_.trace_sample);
    }
    result_.members.resize(opts_.members);
    for (std::size_t i = 0; i < opts_.members; ++i) {
      result_.members[i].index = i;
      pending_.push_back(i);
    }
    raise_nofile_limit(opts_.members + 64);
    const std::size_t cap =
        opts_.concurrency == 0 ? opts_.members : opts_.concurrency;

    std::vector<PollEvent> events;
    while (done_ < opts_.members) {
      while (!pending_.empty() && active_.size() < cap) {
        start_member(pending_.front());
        pending_.pop_front();
      }
      if (active_.empty()) break;  // everything that could run has finished
      result_.peak_concurrent =
          std::max(result_.peak_concurrent, active_.size());
      const int timeout = next_timeout_ms();
      if (!loop_.wait(events, timeout).ok()) break;
      const auto now = Clock::now();
      for (const PollEvent& ev : events) {
        auto it = active_.find(ev.fd);
        if (it == active_.end()) continue;
        std::shared_ptr<Member> member = it->second;
        if (ev.writable || ev.error) on_writable(member);
        if ((ev.readable || ev.error) && active_.count(ev.fd)) {
          on_readable(member);
        }
      }
      flush_delayed(now);
      scan_idle();
    }
    // Whatever is still open never completed (watchdog-abandoned).
    for (auto& [fd, member] : active_) {
      if (member->outcome.error.empty()) member->outcome.error = "timeout";
      member->outcome.latency_ns = ns_since(member->start);
      result_.members[member->index] = member->outcome;
      loop_.remove(fd);
      member->channel.close();
      ++done_;
    }
    active_.clear();
    for (const MemberOutcome& outcome : result_.members) {
      if (outcome.completed) {
        ++result_.completed;
        if (outcome.report.attested()) ++result_.attested;
      }
      if (outcome.update_offered) {
        ++result_.updates_offered;
        if (outcome.update_status.accepted) ++result_.updates_accepted;
      }
    }
    result_.wall_ns = ns_since(wall_start);
    return std::move(result_);
  }

 private:
  void start_member(std::size_t index) {
    auto member = std::make_shared<Member>();
    member->index = index;
    member->outcome.index = index;
    member->hello = member_hello(opts_.fleet, opts_.member_offset + index);
    // Head-sampling decision, made once at the edge and propagated in the
    // HELLO so the server records the matching half of the timeline.
    member->hello.sampled = obs::should_trace(member->hello.trace);
    member->outcome.trace = member->hello.trace;
    member->outcome.sampled = member->hello.sampled;
    std::function<void(core::SachaProver&)> tamper;
    if (opts_.tampered.count(index) > 0) tamper = standard_tamper();
    member->agent =
        std::make_unique<ProverAgent>(member->hello, std::move(tamper));
    auto channel = TcpChannel::connect(opts_.host, opts_.port);
    if (!channel.ok()) {
      member->outcome.error = channel.message();
      result_.members[index] = member->outcome;
      ++done_;
      return;
    }
    member->channel = std::move(channel).take();
    member->start = Clock::now();
    member->last_activity = member->start;
    member->timeline.start(member->hello.trace, member->hello.sampled);
    active_.emplace(member->channel.fd(), member);
    // Wait for writability = connect completion.
    (void)loop_.add(member->channel.fd(), /*want_read=*/true,
                    /*want_write=*/true);
  }

  void finish_member(const std::shared_ptr<Member>& member,
                     std::string error) {
    if (!member->channel.open()) return;
    if (!error.empty() && member->outcome.error.empty() &&
        !member->outcome.completed) {
      member->outcome.error = std::move(error);
    }
    member->timeline.finish();
    if (member->outcome.latency_ns == 0) {
      member->outcome.latency_ns = ns_since(member->start);
    }
    member->outcome.client_mac = member->agent->last_mac();
    result_.members[member->index] = member->outcome;
    loop_.remove(member->channel.fd());
    active_.erase(member->channel.fd());
    member->channel.close();
    ++done_;
  }

  void on_writable(const std::shared_ptr<Member>& member) {
    if (!member->channel.open()) return;
    if (member->state == Member::State::kConnecting) {
      Status st = member->channel.finish_connect();
      if (!st.ok()) {
        finish_member(member, st.message());
        return;
      }
      member->state = Member::State::kRunning;
      if (!member->channel.send(FrameKind::kHello, member->hello.encode())
               .ok()) {
        finish_member(member, "HELLO send failed");
        return;
      }
    }
    if (!member->channel.flush_some().ok()) {
      finish_member(member, "socket write failed");
      return;
    }
    update_interest(member);
  }

  void on_readable(const std::shared_ptr<Member>& member) {
    if (!member->channel.open()) return;
    member->last_activity = Clock::now();
    bool closed = false;
    if (!member->channel.read_some(&closed).ok()) {
      finish_member(member, "socket read failed");
      return;
    }
    for (;;) {
      auto frame = member->channel.next_frame();
      if (!frame.ok()) {
        finish_member(member, "frame decode: " + frame.message());
        return;
      }
      if (!frame.value().has_value()) break;
      if (!handle_frame(member, *std::move(frame).take())) return;
    }
    if (closed) {
      finish_member(member, member->outcome.completed ? "" : "server closed");
      return;
    }
    update_interest(member);
  }

  /// Follows a coordinator redirect: drops the coordinator connection and
  /// dials the owning shard with the same HELLO. One hop only — a shard
  /// redirecting again means the ring views disagree, which is an error.
  /// Returns false always (the old fd is gone either way).
  bool follow_redirect(const std::shared_ptr<Member>& member,
                       const HelloAckMsg& ack) {
    if (member->redirected) {
      finish_member(member, "second redirect from " + ack.redirect_host);
      return false;
    }
    member->redirected = true;
    member->outcome.redirected = true;
    ++result_.redirects;
    loop_.remove(member->channel.fd());
    active_.erase(member->channel.fd());
    member->channel.close();
    auto channel = TcpChannel::connect(ack.redirect_host, ack.redirect_port);
    if (!channel.ok()) {
      member->outcome.error = "redirect connect: " + channel.message();
      member->outcome.latency_ns = ns_since(member->start);
      result_.members[member->index] = member->outcome;
      ++done_;
      return false;
    }
    member->channel = std::move(channel).take();
    member->state = Member::State::kConnecting;
    member->last_activity = Clock::now();
    active_.emplace(member->channel.fd(), member);
    (void)loop_.add(member->channel.fd(), /*want_read=*/true,
                    /*want_write=*/true);
    return false;
  }

  /// Returns false when the member was torn down.
  bool handle_frame(const std::shared_ptr<Member>& member, Frame frame) {
    switch (frame.kind) {
      case FrameKind::kHelloAck: {
        auto ack = HelloAckMsg::decode(frame.payload);
        if (!ack.ok()) {
          finish_member(member, "bad HELLO_ACK: " + ack.message());
          return false;
        }
        if (ack.value().is_redirect()) {
          return follow_redirect(member, ack.value());
        }
        return true;  // plain accept: schedule length is informational
      }
      case FrameKind::kCommand:
        return handle_command(member, frame.payload);
      case FrameKind::kReport: {
        auto report = ReportMsg::decode(frame.payload);
        if (!report.ok()) {
          finish_member(member, "bad REPORT: " + report.message());
          return false;
        }
        member->outcome.completed = true;
        member->outcome.report = std::move(report).take();
        // Session latency ends at the verdict, not at teardown: the
        // server may keep the connection open for one UPDATE_OFFER /
        // UPDATE_STATUS exchange after the REPORT, and closes it either
        // way once done (the close is what finishes the member).
        member->outcome.latency_ns = ns_since(member->start);
        return true;
      }
      case FrameKind::kUpdateOffer: {
        auto offer = UpdateOfferMsg::decode(frame.payload);
        if (!offer.ok()) {
          finish_member(member, "bad UPDATE_OFFER: " + offer.message());
          return false;
        }
        UpdateStatusMsg status;
        status.version = offer.value().version;
        if (opts_.on_update_offer) {
          status = opts_.on_update_offer(offer.value());
        } else {
          status.accepted = false;
          status.state = "Idle";
          status.detail = "no update handler";
        }
        member->outcome.update_offered = true;
        member->outcome.update_status = status;
        if (!member->channel.send(FrameKind::kUpdateStatus, status.encode())
                 .ok()) {
          finish_member(member, "UPDATE_STATUS send failed");
          return false;
        }
        return true;
      }
      case FrameKind::kError: {
        auto msg = ErrorMsg::decode(frame.payload);
        finish_member(member, "server abort: " + (msg.ok() ? msg.value().detail
                                                           : msg.message()));
        return false;
      }
      default:
        finish_member(member, "unexpected frame kind");
        return false;
    }
  }

  bool handle_command(const std::shared_ptr<Member>& member,
                      const Bytes& payload) {
    // Prover-side phase tracking (sampled sessions only): command-type
    // transitions, handed back by the agent's one decode, mark the Table-4
    // phase boundaries as the device sees them.
    std::function<void(core::CommandType)> mark_phase;
    if (member->timeline.active()) {
      mark_phase = [&timeline = member->timeline](core::CommandType type) {
        timeline.phase(prover_phase(type));
      };
    }
    Bytes response = member->agent->handle_command(payload, mark_phase);
    ++member->responses_sent;
    // Injected abrupt disconnect: close without a goodbye, mid-window —
    // the server must quarantine, not crash.
    auto cut = opts_.disconnect_after.find(member->index);
    if (cut != opts_.disconnect_after.end() &&
        member->responses_sent > cut->second) {
      finish_member(member, "injected disconnect");
      return false;
    }
    // Drop shim: the response evaporates (server-side timeout path).
    if (opts_.drop_probability > 0.0 &&
        shim_rng_.chance(opts_.drop_probability)) {
      return true;
    }
    if (opts_.delay_us > 0) {
      member->delayed.emplace_back(
          Clock::now() + std::chrono::microseconds(opts_.delay_us),
          std::move(response));
      return true;
    }
    if (!member->channel.send(FrameKind::kResponse, std::move(response))
             .ok()) {
      finish_member(member, "response send failed");
      return false;
    }
    return true;
  }

  void flush_delayed(Clock::time_point now) {
    if (opts_.delay_us == 0) return;
    std::vector<std::shared_ptr<Member>> due;
    for (auto& [fd, member] : active_) {
      if (!member->delayed.empty() && member->delayed.front().first <= now) {
        due.push_back(member);
      }
    }
    for (const auto& member : due) {
      while (!member->delayed.empty() &&
             member->delayed.front().first <= now) {
        Bytes response = std::move(member->delayed.front().second);
        member->delayed.pop_front();
        if (!member->channel.send(FrameKind::kResponse, std::move(response))
                 .ok()) {
          finish_member(member, "response send failed");
          break;
        }
      }
      if (member->channel.open()) update_interest(member);
    }
  }

  int next_timeout_ms() {
    int timeout = 100;
    if (opts_.delay_us > 0) {
      timeout = std::min<int>(
          timeout,
          std::max<int>(
              1, static_cast<int>(opts_.delay_us / 1000 ? opts_.delay_us / 1000
                                                        : 1)));
    }
    return timeout;
  }

  void scan_idle() {
    if (opts_.timeout_ms == 0) return;
    const auto cutoff =
        Clock::now() - std::chrono::milliseconds(opts_.timeout_ms);
    std::vector<std::shared_ptr<Member>> stale;
    for (auto& [fd, member] : active_) {
      if (member->last_activity < cutoff) stale.push_back(member);
    }
    for (const auto& member : stale) finish_member(member, "timeout");
  }

  void update_interest(const std::shared_ptr<Member>& member) {
    if (!member->channel.open()) return;
    (void)loop_.modify(member->channel.fd(), /*want_read=*/true,
                       member->channel.want_write() ||
                           member->state == Member::State::kConnecting);
  }

  LoadOptions opts_;
  EventLoop loop_;
  Rng shim_rng_;
  LoadResult result_;
  std::deque<std::size_t> pending_;
  std::unordered_map<int, std::shared_ptr<Member>> active_;
  std::size_t done_ = 0;
};

}  // namespace

LoadResult run_load(const LoadOptions& options) {
  return LoadRunner(options).run();
}

}  // namespace sacha::net
