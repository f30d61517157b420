#include "resolver/udp_server.hpp"

#include <poll.h>

#include "resolver/tcp_server.hpp"

#include <algorithm>

namespace nxd::resolver {

std::unique_ptr<UdpDnsServer> UdpDnsServer::create(
    const net::Endpoint& local, const AuthoritativeServer& auth) {
  auto socket = net::UdpSocket::bind(local);
  if (!socket) return nullptr;
  return std::unique_ptr<UdpDnsServer>(
      new UdpDnsServer(std::move(*socket), auth));
}

void UdpDnsServer::attach(net::EventLoop& loop) {
  loop.add_readable(socket_.fd(), [this] { pump(); });
}

std::size_t UdpDnsServer::pump() {
  std::size_t handled = 0;
  while (auto datagram = socket_.recv()) {
    handle_one(*datagram);
    ++handled;
  }
  return handled;
}

void UdpDnsServer::handle_one(const net::Datagram& datagram) {
  std::vector<std::uint8_t> payload = datagram.payload;
  bool duplicate = false;
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    const auto verdict = fault_plan_->apply(socket_.local(), payload, 0);
    if (verdict.drop) {
      counters_.inc<&Counts::faulted>();
      return;
    }
    duplicate = verdict.duplicate;
  }
  const auto query = dns::decode(payload);
  if (!query || query->header.qr) {
    counters_.inc<&Counts::malformed>();
    return;
  }
  dns::Message response = auth_.answer(*query);
  if (rrl_ != nullptr && rrl_clock_ != nullptr) {
    switch (rrl_->check(datagram.from.ip, rrl_clock_->now())) {
      case RrlVerdict::Pass:
        break;
      case RrlVerdict::Drop:
        counters_.inc<&Counts::rrl_dropped>();
        return;
      case RrlVerdict::Slip:
        counters_.inc<&Counts::rrl_slipped>();
        response = slip_truncate(response);
        break;
    }
  }
  // EDNS(0): a client advertising a larger payload raises the truncation
  // threshold (clamped to a sane ceiling); the server echoes an OPT with
  // its own capability either way (RFC 6891 §6.2.1).
  std::size_t limit = kMaxUdpPayload;
  if (query->edns) {
    limit = std::clamp<std::size_t>(query->edns->udp_payload, kMaxUdpPayload,
                                    kMaxEdnsPayload);
    response.edns = dns::EdnsInfo{kMaxEdnsPayload, 0, false};
  }
  auto wire = dns::encode(response);
  if (wire.size() > limit) {
    // RFC 1035 §4.2.1: answer doesn't fit in the datagram — set TC and let
    // the client retry over TCP.
    response = truncate_for_udp(response, wire.size(), limit);
    wire = dns::encode(response);
  }
  if (socket_.send_to(datagram.from, wire)) {
    counters_.inc<&Counts::answered>();
  }
  if (duplicate && socket_.send_to(datagram.from, wire)) {
    counters_.inc<&Counts::answered>();
  }
}

std::optional<dns::Message> udp_query(const net::Endpoint& server,
                                      const dns::Message& query,
                                      int timeout_ms) {
  auto socket = net::UdpSocket::bind(
      net::Endpoint{dns::IPv4::from_octets(127, 0, 0, 1), 0});
  if (!socket) return std::nullopt;
  if (!socket->send_to(server, dns::encode(query))) return std::nullopt;

  pollfd pfd{socket->fd(), POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
  const auto reply = socket->recv();
  if (!reply) return std::nullopt;
  auto message = dns::decode(reply->payload);
  if (!message || message->header.id != query.header.id) return std::nullopt;
  return message;
}

}  // namespace nxd::resolver
