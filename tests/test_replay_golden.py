"""Cross-version replay gate: one small campaign against pinned file digests.

The campaign covers all four algorithms and all four normalization kinds on
two problems, and every file ``write_results`` produces is compared with a
SHA-256 digest recorded from an earlier version of the package.  A pure
refactor must leave every digest unchanged.  A change that alters random
number consumption (or any arithmetic that reaches a result file) must
update the digests below and say so in CHANGES.md.
"""
import hashlib
import logging

from prefnorm.harness import execute_campaign, validate_config, write_results

# checkpoint 100 is off the mu = 8 generation grid and snaps to 104
GOLDEN_CONFIG = {
    "problems": ["dtlz2:2", "sdtlz1:3"],
    "algorithms": ["nsga2", "rnsga2", "r2nsga2", "moead-nums"],
    "normalizations": ["pp", "bp", "ba", "no"],
    "runs": 2,
    "budget": 400,
    "mu": 8,
    "seed": 7,
    "checkpoints": [100, 200, 400],
    "pf_size": 300,
}

GOLDEN_DIGESTS = {
    "manifest.json":
        "316b1a3aec2efb93c9e03214b2e9290772bc425550f75aae060cb8d0196f1712",
    "rank_summary.csv":
        "897fbc2cbe76531caa1a3546e0aecc0f0fa27bce7fb36b9bd3c730a5a9ad722c",
    "ranks.csv":
        "1d2660e30789f10ee9ff2f4a512cbe7edd268da21dfa971c08750201f9800871",
    "runs/dtlz2_m2_moead-nums_ba_r00.csv":
        "8e61e4b3f5443435871e868902ad6bfd9956caed62bc319c4a7f2c354a5822b8",
    "runs/dtlz2_m2_moead-nums_ba_r00_pop.csv":
        "c55d2e0552b819bcca37f2cb68bd2bd7ec221bc45b18f0d58b1fc9d0237e5793",
    "runs/dtlz2_m2_moead-nums_ba_r01.csv":
        "c4183ee7f5a64d8dea2547c7717d217fee417438cf1bace7c6035f4216fa29dd",
    "runs/dtlz2_m2_moead-nums_ba_r01_pop.csv":
        "81672117268318a68c43798e1639bc7da157ff2c067ef50e336960058e8e0533",
    "runs/dtlz2_m2_moead-nums_bp_r00.csv":
        "33d7280f04fe0dcc76cbd25549de43f883f285b250dde3f67bd9d56a881614b8",
    "runs/dtlz2_m2_moead-nums_bp_r00_pop.csv":
        "641eb9e47f3c02f630928bf81534732bd1b4d59d1bf564f20196122f80602eb6",
    "runs/dtlz2_m2_moead-nums_bp_r01.csv":
        "535c23a30f7fb42face5639d6ef3d8c86800b0897d6f13dcc4d1205c8938f6ad",
    "runs/dtlz2_m2_moead-nums_bp_r01_pop.csv":
        "cd18c66bbd0fbea15c87f120fd8635962ae7b0832399feeb9fdd96db61005e2e",
    "runs/dtlz2_m2_moead-nums_no_r00.csv":
        "a76fc0ec769678d6a011236f82cbc0812e1dc8a6547435519de2a86e1e7a39e0",
    "runs/dtlz2_m2_moead-nums_no_r00_pop.csv":
        "7551e8fc48eacf4c7ee2790911c1d603055ab29e9ed8e6fdd8f6aef0e6279f6f",
    "runs/dtlz2_m2_moead-nums_no_r01.csv":
        "1a6ad1ab1d4d5156068ab1c1182959bb934f790e9c6c2a22de18f1062a1aefcc",
    "runs/dtlz2_m2_moead-nums_no_r01_pop.csv":
        "8d44f60552a06ac2ff3fb5bbf20a28ab34acf486674c303472ba1e9c41ac20cb",
    "runs/dtlz2_m2_moead-nums_pp_r00.csv":
        "2bd7337d1bebf94151aa5334660d402a81e6206f89038984b421d0856e4054de",
    "runs/dtlz2_m2_moead-nums_pp_r00_pop.csv":
        "b81e5c14f93e006cbc91d64cbd298504b6c187aa054eb98978b700537c071d1a",
    "runs/dtlz2_m2_moead-nums_pp_r01.csv":
        "53bf050f910176701740f356e40d7af4a3e9a51d1d3ce22b076dcc265fea8b33",
    "runs/dtlz2_m2_moead-nums_pp_r01_pop.csv":
        "46ea0fec4f83335caa27f717c2faa652ea3f0c847ea856766759e6a2270f639a",
    "runs/dtlz2_m2_nsga2_ba_r00.csv":
        "40169598a213c89d255c66fbba8725e985ab18eab1e42d379a69a2c2a5e539d2",
    "runs/dtlz2_m2_nsga2_ba_r00_pop.csv":
        "3356c21cab6383a4929ba673d14703d37a6ecbc07fbb9680ea898563fa368abb",
    "runs/dtlz2_m2_nsga2_ba_r01.csv":
        "6bf6ba39eabcc9ab89f59fbcd0e6df786412670a760ebe6f6095b8b1881f92d4",
    "runs/dtlz2_m2_nsga2_ba_r01_pop.csv":
        "b5d9963bd0e53f79ecfa1911a9a261dd41f5ddd5cef5ada76be1a25c277afdbb",
    "runs/dtlz2_m2_nsga2_bp_r00.csv":
        "d3c9c71a1aa4f03d1856114d43c46b0f3a1fbed63a192ea73af92623b67cb701",
    "runs/dtlz2_m2_nsga2_bp_r00_pop.csv":
        "9f8049e64ce223367aff7e332b5fc687e15bb2de14c1eb1fd9239062c2e4299e",
    "runs/dtlz2_m2_nsga2_bp_r01.csv":
        "c9fd14e3f458eeaff6e2ecc5dcfb4e035c53992281a6884b6c6eb00016a6923d",
    "runs/dtlz2_m2_nsga2_bp_r01_pop.csv":
        "5cdb5d5c0b8a180bce5628dd8c8960dbf725bca864638759399078a81fd1da42",
    "runs/dtlz2_m2_nsga2_no_r00.csv":
        "ed9b610cc6ab6ad00d2a78c95680f7b721fbfd2098345be095cbd4dfd39ad51a",
    "runs/dtlz2_m2_nsga2_no_r00_pop.csv":
        "e871b1f8c5e2b5179792f7556e9378b9e312eed165bf61cf6e6f7eb1dd472c38",
    "runs/dtlz2_m2_nsga2_no_r01.csv":
        "bd7dbfb673c2211ac36ef1844a474d9b610957862f1f992e2572e9dc49f9c586",
    "runs/dtlz2_m2_nsga2_no_r01_pop.csv":
        "d9f9ade0d089a2ac884713e48559ea1fe8c364055036df1dbac8a5e9c676c456",
    "runs/dtlz2_m2_nsga2_pp_r00.csv":
        "de926aad07a88233c47a1cf8400455c250d3ad584ceebbb4c9109e0bf3d731d2",
    "runs/dtlz2_m2_nsga2_pp_r00_pop.csv":
        "3e2c55920210ec848a6a545d9ac8b5f14463527906b1fd7a4b8b63f3119db165",
    "runs/dtlz2_m2_nsga2_pp_r01.csv":
        "c731e5cb2e8a24b005f2155207ce4133a181621ae068ea224a71e615a21eb398",
    "runs/dtlz2_m2_nsga2_pp_r01_pop.csv":
        "1503316e19574dabe852c59357c9ab624c79d5b66510fa8f388f9e6dd17cb011",
    "runs/dtlz2_m2_r2nsga2_ba_r00.csv":
        "12100884b4ecde677ceac4d0b8fe52843e61ab3d7c532e025507e34aa9d0edfe",
    "runs/dtlz2_m2_r2nsga2_ba_r00_pop.csv":
        "77f207813d9538584abcce9cfb5b8885c5909c44963a15d599cb58dea172b20b",
    "runs/dtlz2_m2_r2nsga2_ba_r01.csv":
        "4c10b0a281e01e184f8e21ffdb1dee34cfb3006c5e8c032386a027cab20a3bc3",
    "runs/dtlz2_m2_r2nsga2_ba_r01_pop.csv":
        "7e8b11e3fabe1843c97e959817f4d74623525105e106c8172e73a9de26ec115b",
    "runs/dtlz2_m2_r2nsga2_bp_r00.csv":
        "6a6db46328aa292f07a4d1af52a18d98aae65790a21253ccdea0bcb05f456199",
    "runs/dtlz2_m2_r2nsga2_bp_r00_pop.csv":
        "d27c2562e86832d78224eaaba7559b39631593456426601290542d847a23b014",
    "runs/dtlz2_m2_r2nsga2_bp_r01.csv":
        "2bb1062a05a3f7b430f9aef6996640cdbf94405a378b39ded31c066e5ebe9266",
    "runs/dtlz2_m2_r2nsga2_bp_r01_pop.csv":
        "19c76f313b4b565632809fe39d1bf6e38c39ded1b3d86952daf68f91c380e20f",
    "runs/dtlz2_m2_r2nsga2_no_r00.csv":
        "f1b60f37e45ab8af6d1d8b17a9144412e77a44d9cc5218f3cc55cfc5e92c91e7",
    "runs/dtlz2_m2_r2nsga2_no_r00_pop.csv":
        "12f532fed24ce072121d6b7295d2c60e87c4bcc92bd6404dc817bc47c940bf65",
    "runs/dtlz2_m2_r2nsga2_no_r01.csv":
        "f7011635abc74b8b5bb3e7d6951a367ae0ff642f0520dc566bdc670ac8e1e25c",
    "runs/dtlz2_m2_r2nsga2_no_r01_pop.csv":
        "80913a7254c638386e6172ed1c9aaa93e97c9d890dc6ec2766c381ef13964828",
    "runs/dtlz2_m2_r2nsga2_pp_r00.csv":
        "ca2b06adb0e0af86db2815e816608452a0f680a18403d8215af7a3afce97ce6c",
    "runs/dtlz2_m2_r2nsga2_pp_r00_pop.csv":
        "e03bf130f812813fe8429a1309e84fcd67cbc90b7a8758b51397f20c005f2f06",
    "runs/dtlz2_m2_r2nsga2_pp_r01.csv":
        "9180bc3eeb6b95b3c40ebfda05447a13915ff5861206232547bf8b270f896af2",
    "runs/dtlz2_m2_r2nsga2_pp_r01_pop.csv":
        "9d31a20b63fe6cbb5e7eebb7404d40ed342aa881de966adac8cd505e60f8a388",
    "runs/dtlz2_m2_rnsga2_ba_r00.csv":
        "94434962535607bded08c6c435268e25fb8a4381dde36098b0bcbe7b627b8d52",
    "runs/dtlz2_m2_rnsga2_ba_r00_pop.csv":
        "1f65ab9d9bfbefa46ddf4f3a185c24be06f29ab520d3444c9d247b3997df1769",
    "runs/dtlz2_m2_rnsga2_ba_r01.csv":
        "d2db881598621a33deec63cb1f11576f2057185485557ea3cb2a1dbfa3d075fc",
    "runs/dtlz2_m2_rnsga2_ba_r01_pop.csv":
        "94a40a0d5a5b61187c62648340e1d9e8a6c4457eb29e72409bfe1e506cd3e82e",
    "runs/dtlz2_m2_rnsga2_bp_r00.csv":
        "11d23bf603035473c51350cdc69ecd5648ecd86786c3dbcc9c6ae166cdc45f6e",
    "runs/dtlz2_m2_rnsga2_bp_r00_pop.csv":
        "c403fde18c258d7e668b56d771e68b2810f9341acf8215b650443e3f697d6aa7",
    "runs/dtlz2_m2_rnsga2_bp_r01.csv":
        "3abdf7ab45937b2d12f9fc563f6fed2714d70ccdc5f7c0ca13faf092f442ef7f",
    "runs/dtlz2_m2_rnsga2_bp_r01_pop.csv":
        "20b1464c1464caf66d6e19b966fd73b7252aaf69c7031dbbe0d638f88600759f",
    "runs/dtlz2_m2_rnsga2_no_r00.csv":
        "875b2cc37b2913027e9765a004681d5f03de3dc4b79324b0965f295611e7169a",
    "runs/dtlz2_m2_rnsga2_no_r00_pop.csv":
        "84e1f051c3d19e246f8ed123656b827af26fe35ce9f30a0a578e06db480f8c6c",
    "runs/dtlz2_m2_rnsga2_no_r01.csv":
        "c75f33ad1678f0c30db6c35d1f993fe9e0d9c460bf66e147dcdb034a91e2f7a2",
    "runs/dtlz2_m2_rnsga2_no_r01_pop.csv":
        "2ad4b9b5b1fa6e62cd3725fe535a161f6538020f83bc2493d6110ee71fde0643",
    "runs/dtlz2_m2_rnsga2_pp_r00.csv":
        "560e6b5cf0c0f0d1015696cfce89b9a8f083c1571cff411fd3f4f068bb396f59",
    "runs/dtlz2_m2_rnsga2_pp_r00_pop.csv":
        "5ba883ad4d5086fa2b967c7656cdc1ede926b762f3d86090e8073e92591fe04f",
    "runs/dtlz2_m2_rnsga2_pp_r01.csv":
        "59d0719640af37c97c763a12e32208c8d23745d5ae78dddd6ad83f494b0964f7",
    "runs/dtlz2_m2_rnsga2_pp_r01_pop.csv":
        "4ff625fd2b8709313bb1941f8d322e94fe3f574a50c43f5177477c5907bbd8c7",
    "runs/sdtlz1_m3_moead-nums_ba_r00.csv":
        "8ba543f660aa932b8a5f74287a3d9bd6f361e70803520b2454c44d40be1cf79d",
    "runs/sdtlz1_m3_moead-nums_ba_r00_pop.csv":
        "934951037e10f700ac00a269adb93b3196520f94d449fc4bd4aeb8f00544725e",
    "runs/sdtlz1_m3_moead-nums_ba_r01.csv":
        "39439b2984584e073a9075ff9bc1c7f5ee33ffefc8318f0f66cd3b5acba35b42",
    "runs/sdtlz1_m3_moead-nums_ba_r01_pop.csv":
        "68dbd2da6aabf7c12e13be043fcf93ddc5d4762655efeb38fc52f4a5a2e228f4",
    "runs/sdtlz1_m3_moead-nums_bp_r00.csv":
        "6e94921e47154741b5028036d60ae4ae80a7e63ee4037e1785d13d291face8c9",
    "runs/sdtlz1_m3_moead-nums_bp_r00_pop.csv":
        "4f32b707b54e9f13b5516fbc273ce92b35a4805b6a5c4f95521596892e3ecd26",
    "runs/sdtlz1_m3_moead-nums_bp_r01.csv":
        "a42b7fce6b582de5c1061e3d258b02d3325032633e224a12913e83f78bfe078e",
    "runs/sdtlz1_m3_moead-nums_bp_r01_pop.csv":
        "b8c182dd3b0652673e755902ef6b4e3c9c990b992ab9947157b548c9630575a1",
    "runs/sdtlz1_m3_moead-nums_no_r00.csv":
        "7423cd1d36870ce07e289f75a739bb2e7f0fc8bc57cf42ae256022ba5d47f6ee",
    "runs/sdtlz1_m3_moead-nums_no_r00_pop.csv":
        "3a7d983dddbe6745a83a121958a69aecf36d663a0776ca181424c6c258582b50",
    "runs/sdtlz1_m3_moead-nums_no_r01.csv":
        "c0e240c0c4dc04bbc6219f79c2d0038f03be11dc9fb5ee106dc51940ccea54eb",
    "runs/sdtlz1_m3_moead-nums_no_r01_pop.csv":
        "39c67eb835ffca963119f17702a1d735ed546d66eccc41d115f8257cb04ef298",
    "runs/sdtlz1_m3_moead-nums_pp_r00.csv":
        "861429862ac0db5e47e1d5d45e7a6d57f70d261ee14644739d0ce0321d24c7f3",
    "runs/sdtlz1_m3_moead-nums_pp_r00_pop.csv":
        "2556626aa5ef5d5f6ccaf2c22c9d8b28e5178ffa2c50912c4f1c8402a32ea6d7",
    "runs/sdtlz1_m3_moead-nums_pp_r01.csv":
        "99fca70ba060b506abbc4271483b0538f1864d59916e2c0169ee0b0b2ed4de9d",
    "runs/sdtlz1_m3_moead-nums_pp_r01_pop.csv":
        "6a93bbb1fd3bc56a4e2a192c7c45835e75ae54cb42a58ab02396d2df1e589bf0",
    "runs/sdtlz1_m3_nsga2_ba_r00.csv":
        "3f3385d70574e293f0c806fd8e93f38921cf10ca7632b74d8bfcba84b78601cc",
    "runs/sdtlz1_m3_nsga2_ba_r00_pop.csv":
        "08a0518daab45a0c09437a940b819650e738fa07bded0c0e2675bd7eafc5c1ae",
    "runs/sdtlz1_m3_nsga2_ba_r01.csv":
        "8dbbab12b48922145769558a5d3ae10d29d3b532b96d85c8a214403327dc841e",
    "runs/sdtlz1_m3_nsga2_ba_r01_pop.csv":
        "ccb0eee04693ef0a3307badef37996b1398421febfe85505ba29f6e036c27bf0",
    "runs/sdtlz1_m3_nsga2_bp_r00.csv":
        "263f95a73ca8bb74ff9eb5373ffcb24b21fb2da2829617e6071195bc0b73213f",
    "runs/sdtlz1_m3_nsga2_bp_r00_pop.csv":
        "3901265cec0c6c97dfb5f5f2ca7d92821a4c603d3d9fa41d04daa6202f8ad17c",
    "runs/sdtlz1_m3_nsga2_bp_r01.csv":
        "ff2ba110be009985ff903eac5d99e3ab07ea393a65b1e97ba1fad500c8536641",
    "runs/sdtlz1_m3_nsga2_bp_r01_pop.csv":
        "68ebe5d09f98804170798c0035c15c197ab8ff949480d430c04cb2793978bad9",
    "runs/sdtlz1_m3_nsga2_no_r00.csv":
        "0fa5c534da4a10fca546f474a01f27861d7c52a82239c94e4404dfad368a3035",
    "runs/sdtlz1_m3_nsga2_no_r00_pop.csv":
        "dfb42fea0d7537cac190f777d8fd734f10cdb80cfd7fd06a096f0b3be56f633c",
    "runs/sdtlz1_m3_nsga2_no_r01.csv":
        "7ab8d7d95b4424c590137a319fc92ffdb6a682550d04b3bfce44bd11acbf2765",
    "runs/sdtlz1_m3_nsga2_no_r01_pop.csv":
        "0248e7078b92661a057c4b042bb3d4bc51ecd16d7308a95cdbaa9c6f2e7bd032",
    "runs/sdtlz1_m3_nsga2_pp_r00.csv":
        "4480d548f97e208e8e9b98d2c11aed4ff371c7f8f2fbbafb4f3f27a7a07b5a05",
    "runs/sdtlz1_m3_nsga2_pp_r00_pop.csv":
        "b9db457487d2e2ae884fb444aeb4e38063a4d7ee54b7c14603873db2a7b9ec8d",
    "runs/sdtlz1_m3_nsga2_pp_r01.csv":
        "4cc3643ff1e6ecaf91c504a68d6cca16e130f24b742aefb28e766d41a0ba47ee",
    "runs/sdtlz1_m3_nsga2_pp_r01_pop.csv":
        "726b6c18a905d2c6323689026990f63a3f0276273a1431f534ec16a538fe0979",
    "runs/sdtlz1_m3_r2nsga2_ba_r00.csv":
        "be022bc148728caba5c294eb7dfd8999824878533f8dbcdef1f6bd1eb6473725",
    "runs/sdtlz1_m3_r2nsga2_ba_r00_pop.csv":
        "df448f4100ef455289bc5c567df70bc0e80ca0cfd49e7856260108f5f3f02e56",
    "runs/sdtlz1_m3_r2nsga2_ba_r01.csv":
        "8858fe4cb3d9a3d58d379a468c91dc43a5e9f7bfcd0801d5ee1c22a6f7506fdf",
    "runs/sdtlz1_m3_r2nsga2_ba_r01_pop.csv":
        "f5aa6d57d6c90fd552d063796530eea0078a67adbc46a4b44ad2011320f26b3e",
    "runs/sdtlz1_m3_r2nsga2_bp_r00.csv":
        "ef2b3a4e865d7df428ad9d0b196c4a5d9162d171df40b7764d89b77e1186aa2c",
    "runs/sdtlz1_m3_r2nsga2_bp_r00_pop.csv":
        "953719d316ad60591a56ab05e16abda135a02f9ee4deb8a19c73465c09e640b1",
    "runs/sdtlz1_m3_r2nsga2_bp_r01.csv":
        "164ec0d1e6933767d9f6708176b11fe086103989bdb5abc7ce3b8aadc02312b1",
    "runs/sdtlz1_m3_r2nsga2_bp_r01_pop.csv":
        "7c253252f2604a4556e7168f2c222356c809feb6937aeade932aae8e1f994127",
    "runs/sdtlz1_m3_r2nsga2_no_r00.csv":
        "017e34c52c686e4ee262afb74dfeaa6032a6f28ba747c398cbb1663084b2971b",
    "runs/sdtlz1_m3_r2nsga2_no_r00_pop.csv":
        "9ca68564e23e535979fe6b64215da3cc27e7c21107225daff159afa8215b972b",
    "runs/sdtlz1_m3_r2nsga2_no_r01.csv":
        "3aaab9fbed8823b456246abf8425d8ae848c83659bad1577cc084d5eb8568eec",
    "runs/sdtlz1_m3_r2nsga2_no_r01_pop.csv":
        "350badd3e5ff831046f2fc66edbb66613aaaa7b76a9f65c5a283ab981f7ec6ed",
    "runs/sdtlz1_m3_r2nsga2_pp_r00.csv":
        "b857eb03fdf93931158b4375f0f66e671a4a31c9bb75c2c9a270d2e442dcf322",
    "runs/sdtlz1_m3_r2nsga2_pp_r00_pop.csv":
        "a4dab00d31e6e4685a1ec5123f948c6648b64ed96d1688200ac60401f007c5f2",
    "runs/sdtlz1_m3_r2nsga2_pp_r01.csv":
        "3e0839fe57801191aa12ca2abe1fc933c3e1a29da31fc116524479c57bebb367",
    "runs/sdtlz1_m3_r2nsga2_pp_r01_pop.csv":
        "2212a11369b54dc51bd33887cf4bb586b875e8258ca878aa75b18d5972ac994c",
    "runs/sdtlz1_m3_rnsga2_ba_r00.csv":
        "aa0646c2fe5c5a7ccab2e056a4f0b8b954cfbd2a6c3b0510e3fc3bc5d6a6f1d9",
    "runs/sdtlz1_m3_rnsga2_ba_r00_pop.csv":
        "9eda28c76ddd5f9d6b9f631251f1cc8f6716476df4c03200ef533d46a764face",
    "runs/sdtlz1_m3_rnsga2_ba_r01.csv":
        "5ec010bdcf1faf37f094e2f72c6c82b0d75ac52335d132ed4eb442712e53ba7a",
    "runs/sdtlz1_m3_rnsga2_ba_r01_pop.csv":
        "977d80a09da3649d3fbf0a94681c045ccabb249f76ae14a65aada9a79aae76c4",
    "runs/sdtlz1_m3_rnsga2_bp_r00.csv":
        "43d37df4a56f42c54309fab707b429cba8744f2e11d1155789064c0cac63f462",
    "runs/sdtlz1_m3_rnsga2_bp_r00_pop.csv":
        "850cb494d067ad3be11ec07f389d8520e6e71f4bfbaf6609af476ebff2198882",
    "runs/sdtlz1_m3_rnsga2_bp_r01.csv":
        "469808017a23d89f3d52e2d0c05d3ca55dbf5ea0f9d46c13925f95f35490ff6e",
    "runs/sdtlz1_m3_rnsga2_bp_r01_pop.csv":
        "955194f0c5c792f91ccbc9a316ff8e13a4832c8a2c2a373d7560d2ad00a00acc",
    "runs/sdtlz1_m3_rnsga2_no_r00.csv":
        "94fa554abff52a9a9d48562c9c2cffbd5573b4a59e22a29f8b5ba27246be74fb",
    "runs/sdtlz1_m3_rnsga2_no_r00_pop.csv":
        "87e2e57fa6afab9a147e7f10cecd56877370bbb6f1381a82bb00ad50fc88dc76",
    "runs/sdtlz1_m3_rnsga2_no_r01.csv":
        "4a7a0ef7a103490ca0caae2dc7619a43d4816ba7f2289145a7b854d81d091d1a",
    "runs/sdtlz1_m3_rnsga2_no_r01_pop.csv":
        "b7f849b92f1f0a0e3f15f17150f60e6e8fea6cc6a19115e04c0cc2f181853bef",
    "runs/sdtlz1_m3_rnsga2_pp_r00.csv":
        "1ac619aaaceb0f9e95820a2f3c3811d862f9342338013f0e2ed72dbf1adf2e95",
    "runs/sdtlz1_m3_rnsga2_pp_r00_pop.csv":
        "9059dbebd1e1e0980465d0dcc0931a7a48f5a502bc2e660a328d5f3de95b2e98",
    "runs/sdtlz1_m3_rnsga2_pp_r01.csv":
        "f5ba15d2b004b58012f3462ae57f1a193b06f7fbb827dc1a0eb5dc65ad9de845",
    "runs/sdtlz1_m3_rnsga2_pp_r01_pop.csv":
        "37a66133cfecc20a6c98bdd50837ec9d232872deb00b98139db93944f558838e",
    "summary.csv":
        "dd56120b2c649ca0ad6da6a0270ae8c8ad7da44d5e509dfa700532b26b2641dc",
    "summary_checkpoints.csv":
        "4513d5714ff92fd552f3d432a36568ec92d2c641c3652a0a8b2a160817c25669",
}


def campaign_digests(out_dir, workers=1) -> dict[str, str]:
    """SHA-256 of every file the golden campaign writes, by relative path."""
    config = validate_config(dict(GOLDEN_CONFIG))
    write_results(execute_campaign(config, workers=workers), config, out_dir)
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def check_campaign_digests(out_dir, workers):
    got = campaign_digests(out_dir, workers)
    assert sorted(got) == sorted(GOLDEN_DIGESTS)
    changed = [rel for rel in sorted(got) if got[rel] != GOLDEN_DIGESTS[rel]]
    assert changed == []


def test_campaign_files_match_pinned_digests(tmp_path, caplog):
    # r2nsga2 logs each cyclic r-dominance event; keep them off the report
    caplog.set_level(logging.ERROR)
    check_campaign_digests(tmp_path, workers=1)


def test_pooled_campaign_files_match_pinned_digests(tmp_path):
    # per-run seeds and task-order collection make two workers write the
    # bytes of one
    check_campaign_digests(tmp_path, workers=2)
