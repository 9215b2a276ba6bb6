module p2pshare/benchmark

go 1.22

require p2pshare v0.0.0

replace p2pshare => ../
