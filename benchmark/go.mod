module inbandlb/benchmark

go 1.22

require inbandlb v0.0.0

replace inbandlb => ../
