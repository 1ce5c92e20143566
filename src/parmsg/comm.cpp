#include "parmsg/comm.hpp"

#include <cstring>
#include <stdexcept>

#include "parmsg/request_state.hpp"

namespace balbench::parmsg {

bool Request::done() const { return state_ && state_->done; }

void Comm::send(int dst, const void* buf, std::size_t n, int tag) {
  Request r = isend(dst, buf, n, tag);
  wait(r);
}

void Comm::recv(int src, void* buf, std::size_t n, int tag) {
  Request r = irecv(src, buf, n, tag);
  wait(r);
}

void Comm::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
}

void Comm::sendrecv(int dst, const void* sendbuf, std::size_t sn, int stag,
                    int src, void* recvbuf, std::size_t rn, int rtag) {
  Request reqs[2];
  reqs[0] = irecv(src, recvbuf, rn, rtag);
  reqs[1] = isend(dst, sendbuf, sn, stag);
  waitall(reqs);
}

void Comm::alltoallv(const void* sendbuf, std::span<const std::size_t> scounts,
                     std::span<const std::size_t> sdispls, void* recvbuf,
                     std::span<const std::size_t> rcounts,
                     std::span<const std::size_t> rdispls) {
  alltoallv_generic(sendbuf, scounts, sdispls, recvbuf, rcounts, rdispls);
}

void Comm::alltoallv_generic(const void* sendbuf,
                             std::span<const std::size_t> scounts,
                             std::span<const std::size_t> sdispls, void* recvbuf,
                             std::span<const std::size_t> rcounts,
                             std::span<const std::size_t> rdispls) {
  const int p = size();
  const int me = rank();
  if (static_cast<int>(scounts.size()) != p || static_cast<int>(rcounts.size()) != p) {
    throw std::invalid_argument("alltoallv: count arrays must have comm size");
  }
  const auto* sbytes = static_cast<const char*>(sendbuf);
  auto* rbytes = static_cast<char*>(recvbuf);

  // Reserve exactly one Request per nonzero peer: every rank holds this
  // vector while it blocks in waitall, so a 2*p reserve would cost a
  // 256-rank session 2 MiB for the usual two-neighbour exchange.
  std::size_t npeers = 0;
  for (int peer = 0; peer < p; ++peer) {
    if (peer == me) continue;
    npeers += (rcounts[static_cast<std::size_t>(peer)] != 0 ? 1 : 0) +
              (scounts[static_cast<std::size_t>(peer)] != 0 ? 1 : 0);
  }
  std::vector<Request> reqs;
  reqs.reserve(npeers);
  const int tag = kInternalTagBase - 1;
  for (int peer = 0; peer < p; ++peer) {
    if (peer == me || rcounts[static_cast<std::size_t>(peer)] == 0) continue;
    void* dst = rbytes != nullptr
                    ? rbytes + rdispls[static_cast<std::size_t>(peer)]
                    : nullptr;
    reqs.push_back(irecv(peer, dst, rcounts[static_cast<std::size_t>(peer)], tag));
  }
  for (int peer = 0; peer < p; ++peer) {
    if (peer == me || scounts[static_cast<std::size_t>(peer)] == 0) continue;
    const void* src = sbytes != nullptr
                          ? sbytes + sdispls[static_cast<std::size_t>(peer)]
                          : nullptr;
    reqs.push_back(isend(peer, src, scounts[static_cast<std::size_t>(peer)], tag));
  }
  // Local segment.
  if (scounts[static_cast<std::size_t>(me)] != 0) {
    if (scounts[static_cast<std::size_t>(me)] != rcounts[static_cast<std::size_t>(me)]) {
      throw std::invalid_argument("alltoallv: self send/recv count mismatch");
    }
    if (sbytes != nullptr && rbytes != nullptr) {
      std::memcpy(rbytes + rdispls[static_cast<std::size_t>(me)],
                  sbytes + sdispls[static_cast<std::size_t>(me)],
                  scounts[static_cast<std::size_t>(me)]);
    }
  }
  waitall(reqs);
}

}  // namespace balbench::parmsg
