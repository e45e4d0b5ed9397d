#include "net/nic.hpp"

namespace repseq::net {

bool Nic::deliver(Message msg) {
  if (inbox_.size() >= cfg_.recv_buffer_msgs && (!droppable_ || droppable_(msg))) {
    ++drops_;
    return false;
  }
  inbox_.push(std::move(msg));
  return true;
}

}  // namespace repseq::net
